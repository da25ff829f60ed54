package keyword

// RandomVocabulary exposes the dense-table tests' random index builder to
// the external test package's κ(wQ) gate.
var RandomVocabulary = randomVocabulary
