// Serving: the bake → serve → query lifecycle in one process.
//
// The example builds a small venue, bakes it to a snapshot file (what
// `ikrqgen -snapshot` does at scale), registers it in a venue registry,
// starts the HTTP serving layer on a loopback listener (what `ikrqd`
// does), and then acts as its own client: a query over HTTP, a live
// closure overlay on the same venue, a look at the ops endpoints, and a
// graceful drain.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"ikrq"
)

func main() {
	// ---- Build a venue: one corridor of three cells, a café and a
	// bookstore hanging off it.
	b := ikrq.NewSpaceBuilder()
	var hall [3]ikrq.PartitionID
	for i := range hall {
		hall[i] = b.AddPartition(fmt.Sprintf("hall-%d", i), ikrq.KindHallway,
			ikrq.Rect(float64(20*i), 0, float64(20*i+20), 10, 0))
	}
	cafe := b.AddPartition("cafe", ikrq.KindRoom, ikrq.Rect(10, 10, 30, 20, 0))
	books := b.AddPartition("bookstore", ikrq.KindRoom, ikrq.Rect(30, 10, 50, 20, 0))
	b.AddDoor(ikrq.At(20, 5, 0), hall[0], hall[1])
	b.AddDoor(ikrq.At(40, 5, 0), hall[1], hall[2])
	cafeDoor := b.AddDoor(ikrq.At(20, 10, 0), hall[1], cafe)
	b.AddDoor(ikrq.At(40, 10, 0), hall[2], books)

	space, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}
	kb := ikrq.NewKeywordBuilder(space.NumPartitions())
	kb.AssignPartition(cafe, kb.DefineIWord("cafe", []string{"coffee", "espresso"}))
	kb.AssignPartition(books, kb.DefineIWord("bookstore", []string{"books", "maps"}))
	index, err := kb.Build()
	if err != nil {
		log.Fatal(err)
	}

	// ---- Bake: engine (with the KoE* oracle) to a snapshot file.
	dir, err := os.MkdirTemp("", "ikrq-serving")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	snap := filepath.Join(dir, "demo.ikrq")
	eng := ikrq.NewEngine(space, index)
	eng.Precompute()
	f, err := os.Create(snap)
	if err != nil {
		log.Fatal(err)
	}
	if err := ikrq.SaveSnapshot(f, eng); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("baked venue to", snap)

	// ---- Serve: registry + HTTP layer on a loopback listener.
	reg := ikrq.NewVenueRegistry(0)
	if err := reg.Add(ikrq.VenueConfig{Name: "demo", Path: snap}); err != nil {
		log.Fatal(err)
	}
	srv := ikrq.NewServer(reg, ikrq.ServerConfig{QueryTimeout: 2 * time.Second})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()
	base := "http://" + l.Addr().String()
	fmt.Println("serving on", base)

	// ---- Query over HTTP, then the same query with the café door closed.
	query := ikrq.QueryRequest{
		Start:    ikrq.PointWire{X: 2, Y: 5, Floor: 0},
		Terminal: ikrq.PointWire{X: 58, Y: 5, Floor: 0},
		Keywords: []string{"coffee", "books"},
		K:        2,
		Eta:      2.0,
		Alpha:    0.5,
		Tau:      0.2,
		Variant:  "KoE*",
	}
	show(base, "normal day", query)

	query.Conditions = &ikrq.ConditionsWire{Close: []int{int(cafeDoor)}}
	show(base, "cafe closed", query)

	// ---- Ops endpoints.
	for _, ep := range []string{"/healthz", "/v1/venues"} {
		resp, err := http.Get(base + ep)
		if err != nil {
			log.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		fmt.Printf("%s -> %s", ep, body)
	}

	// ---- Drain and exit.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		log.Fatal(err)
	}
	if err := <-done; err != http.ErrServerClosed {
		log.Fatal(err)
	}
	fmt.Println("drained cleanly")
}

// show posts one query and prints the ranked routes.
func show(base, label string, q ikrq.QueryRequest) {
	payload, err := json.Marshal(q)
	if err != nil {
		log.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/venues/demo/query", "application/json", bytes.NewReader(payload))
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		log.Fatalf("%s: HTTP %d: %s", label, resp.StatusCode, body)
	}
	var out ikrq.QueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n%s (Δ=%.0fm):\n", label, out.Delta)
	for i, r := range out.Routes {
		fmt.Printf("  #%d ψ=%.3f ρ=%.1f δ=%.1fm doors=%v\n", i+1, r.Psi, r.Rho, r.Dist, r.Doors)
	}
}
