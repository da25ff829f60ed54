package search

import (
	"testing"

	"ikrq/internal/model"
)

// fpCase is one (request, options) pair for the canonicalization table.
type fpCase struct {
	qw   []string
	cond *model.Conditions
	opt  Options
	mut  func(*Request) // optional extra request tweak
}

func (c fpCase) fingerprint() string {
	r := req(c.qw, 3, 80)
	r.Conditions = c.cond
	if c.mut != nil {
		c.mut(&r)
	}
	return fingerprintQuery(&r, c.opt)
}

func TestFingerprintCanonicalization(t *testing.T) {
	toe := Options{Algorithm: ToE}
	equal := []struct {
		name string
		a, b fpCase
	}{
		{"conditions door order", fpCase{qw: []string{"coffee"}, opt: toe,
			cond: model.NewConditions().Close(3).Close(5)},
			fpCase{qw: []string{"coffee"}, opt: toe,
				cond: model.NewConditions().Close(5).Close(3)}},
		{"duplicate closures", fpCase{qw: []string{"coffee"}, opt: toe,
			cond: model.NewConditions().Close(3)},
			fpCase{qw: []string{"coffee"}, opt: toe,
				cond: model.NewConditions().Close(3).Close(3)}},
		{"zero penalty is a no-op", fpCase{qw: []string{"coffee"}, opt: toe,
			cond: model.NewConditions().Close(1)},
			fpCase{qw: []string{"coffee"}, opt: toe,
				cond: model.NewConditions().Close(1).Delay(7, 0)}},
		{"penalty on a closed door is a no-op", fpCase{qw: []string{"coffee"}, opt: toe,
			cond: model.NewConditions().Close(3)},
			fpCase{qw: []string{"coffee"}, opt: toe,
				cond: model.NewConditions().Close(3).Delay(3, 9)}},
		{"nil vs empty conditions", fpCase{qw: []string{"coffee"}, opt: toe},
			fpCase{qw: []string{"coffee"}, opt: toe, cond: model.NewConditions()}},
		{"delay accumulation", fpCase{qw: []string{"coffee"}, opt: toe,
			cond: model.NewConditions().Delay(7, 30)},
			fpCase{qw: []string{"coffee"}, opt: toe,
				cond: model.NewConditions().Delay(7, 10).Delay(7, 20)}},
	}
	for _, tc := range equal {
		if a, b := tc.a.fingerprint(), tc.b.fingerprint(); a != b {
			t.Errorf("%s: canonically identical requests fingerprint differently", tc.name)
		}
	}

	distinct := []struct {
		name string
		a, b fpCase
	}{
		{"keyword order", fpCase{qw: []string{"coffee", "laptop"}, opt: toe},
			fpCase{qw: []string{"laptop", "coffee"}, opt: toe}},
		{"keyword order with duplicates", fpCase{qw: []string{"tea", "coffee", "tea"}, opt: toe},
			fpCase{qw: []string{"tea", "tea", "coffee"}, opt: toe}},
		{"different keywords", fpCase{qw: []string{"coffee"}, opt: toe},
			fpCase{qw: []string{"tea"}, opt: toe}},
		{"case is semantic", fpCase{qw: []string{"coffee"}, opt: toe},
			fpCase{qw: []string{"Coffee"}, opt: toe}},
		{"duplicates count", fpCase{qw: []string{"coffee"}, opt: toe},
			fpCase{qw: []string{"coffee", "coffee"}, opt: toe}},
		{"keyword boundary", fpCase{qw: []string{"ab", "c"}, opt: toe},
			fpCase{qw: []string{"a", "bc"}, opt: toe}},
		{"algorithm", fpCase{qw: []string{"coffee"}, opt: toe},
			fpCase{qw: []string{"coffee"}, opt: Options{Algorithm: KoE}}},
		{"ablation switch", fpCase{qw: []string{"coffee"}, opt: toe},
			fpCase{qw: []string{"coffee"}, opt: Options{Algorithm: ToE, DisablePrime: true}}},
		{"precompute backend", fpCase{qw: []string{"coffee"}, opt: Options{Algorithm: KoE}},
			fpCase{qw: []string{"coffee"}, opt: Options{Algorithm: KoE, Precompute: true}}},
		{"backend bound ablation", fpCase{qw: []string{"coffee"}, opt: Options{Algorithm: KoE, Precompute: true}},
			fpCase{qw: []string{"coffee"}, opt: Options{Algorithm: KoE, Precompute: true, DisableBackendBound: true}}},
		{"work cap", fpCase{qw: []string{"coffee"}, opt: toe},
			fpCase{qw: []string{"coffee"}, opt: Options{Algorithm: ToE, MaxExpansions: 5}}},
		{"tau bits", fpCase{qw: []string{"coffee"}, opt: toe},
			fpCase{qw: []string{"coffee"}, opt: toe, mut: func(r *Request) { r.Tau = 0.2000001 }}},
		{"k", fpCase{qw: []string{"coffee"}, opt: toe},
			fpCase{qw: []string{"coffee"}, opt: toe, mut: func(r *Request) { r.K = 4 }}},
		{"delta", fpCase{qw: []string{"coffee"}, opt: toe},
			fpCase{qw: []string{"coffee"}, opt: toe, mut: func(r *Request) { r.Delta = 81 }}},
		{"start point", fpCase{qw: []string{"coffee"}, opt: toe},
			fpCase{qw: []string{"coffee"}, opt: toe, mut: func(r *Request) { r.Ps.X += 0.5 }}},
		{"closure set", fpCase{qw: []string{"coffee"}, opt: toe,
			cond: model.NewConditions().Close(3)},
			fpCase{qw: []string{"coffee"}, opt: toe,
				cond: model.NewConditions().Close(4)}},
		{"penalty value", fpCase{qw: []string{"coffee"}, opt: toe,
			cond: model.NewConditions().Delay(7, 30)},
			fpCase{qw: []string{"coffee"}, opt: toe,
				cond: model.NewConditions().Delay(7, 31)}},
		{"penalized door", fpCase{qw: []string{"coffee"}, opt: toe,
			cond: model.NewConditions().Delay(7, 30)},
			fpCase{qw: []string{"coffee"}, opt: toe,
				cond: model.NewConditions().Delay(8, 30)}},
		{"conditions presence", fpCase{qw: []string{"coffee"}, opt: toe},
			fpCase{qw: []string{"coffee"}, opt: toe,
				cond: model.NewConditions().Close(0)}},
	}
	for _, tc := range distinct {
		if a, b := tc.a.fingerprint(), tc.b.fingerprint(); a == b {
			t.Errorf("%s: semantically distinct requests alias in the cache key", tc.name)
		}
	}
}

// FuzzFingerprint throws arbitrary keywords, doors and penalties at the
// fingerprint and checks its invariants hold for all of them: conditions
// build order and duplicate closures never change the key; keyword order,
// an effective delay and an extra keyword always do.
func FuzzFingerprint(f *testing.F) {
	f.Add("coffee", "tea", int32(3), int32(7), 30.0)
	f.Add("", "coffee", int32(0), int32(0), 0.0)
	f.Add("a", "a", int32(5), int32(5), -1.5)
	f.Add("café", "caf\x00e", int32(1000), int32(2), 1e-300)
	f.Fuzz(func(t *testing.T, w1, w2 string, d1, d2 int32, pen float64) {
		opt := Options{Algorithm: ToE}
		base := req([]string{w1, w2}, 3, 80)
		base.Conditions = model.NewConditions().Close(model.DoorID(d1)).Delay(model.DoorID(d2), pen)
		key := fingerprintQuery(&base, opt)

		// Conditions build order is representation only.
		rebuilt := req([]string{w1, w2}, 3, 80)
		rebuilt.Conditions = model.NewConditions().Delay(model.DoorID(d2), pen).Close(model.DoorID(d1)).Close(model.DoorID(d1))
		if fingerprintQuery(&rebuilt, opt) != key {
			t.Fatalf("conditions build order changed the key (close=%d delay=%d:%v)", d1, d2, pen)
		}

		// Keyword order is keyed: swapping two keywords changes the key
		// exactly when they differ.
		swapped := req([]string{w2, w1}, 3, 80)
		swapped.Conditions = base.Conditions
		if same := fingerprintQuery(&swapped, opt) == key; same != (w1 == w2) {
			t.Fatalf("swapped keywords %q,%q: key equality %v, want %v", w1, w2, same, w1 == w2)
		}

		// Dropping the delay is semantic exactly when it had an effect: a
		// non-zero penalty on an open door.
		noDelay := req([]string{w1, w2}, 3, 80)
		noDelay.Conditions = model.NewConditions().Close(model.DoorID(d1))
		same := fingerprintQuery(&noDelay, opt) == key
		effective := pen != 0 && d1 != d2
		if same == effective {
			t.Fatalf("delay %d:%v with closure %d: key equality %v, want %v", d2, pen, d1, !effective, effective)
		}

		// A third keyword is always semantic (duplicates count toward ρ).
		extra := req([]string{w1, w2, w1}, 3, 80)
		extra.Conditions = base.Conditions
		if fingerprintQuery(&extra, opt) == key {
			t.Fatalf("extra keyword did not change the key (qw=%q,%q)", w1, w2)
		}
	})
}
