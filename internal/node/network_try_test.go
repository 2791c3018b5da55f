package node

import (
	"encoding/json"
	"strings"
	"testing"

	"routeless/internal/geo"
)

// TestTryNewRejectsImpossiblePlacement is the fails-pre-fix regression
// for the EnsureConnected panic: a density far too sparse for a
// connected unit-disk graph used to kill the process after 100 draws
// (network.go's placement loop); the fuzzer needs that classified as
// scenario-invalid. The config below (3 nodes, 30 m range, 100 km
// square) cannot connect at any luck.
func TestTryNewRejectsImpossiblePlacement(t *testing.T) {
	nw, err := New(Config{
		N:               3,
		Rect:            geo.NewRect(100000, 100000),
		Range:           30,
		Seed:            1,
		EnsureConnected: true,
	})
	if err == nil {
		t.Fatal("New found a connected placement in an impossible configuration")
	}
	if nw != nil {
		t.Error("New returned a network alongside an error")
	}
	if !strings.Contains(err.Error(), "no connected placement") {
		t.Errorf("error %q does not describe the placement failure", err)
	}
}

// TestTryNewRejectsNonPositiveN covers the other construction error.
func TestTryNewRejectsNonPositiveN(t *testing.T) {
	if _, err := New(Config{N: 0, Seed: 1}); err == nil {
		t.Error("New accepted N=0 without positions")
	}
	if _, err := New(Config{N: -7, Seed: 1}); err == nil {
		t.Error("New accepted negative N")
	}
}

// TestTryNewMatchesNew pins the bitwise contract: a config that
// constructs at all produces the identical network whether or not the
// call is wrapped in Must (same placement draws, same metric registry
// bytes).
func TestTryNewMatchesNew(t *testing.T) {
	cfg := Config{N: 25, Rect: geo.NewRect(500, 500), Seed: 7, EnsureConnected: true}
	a := Must(New(cfg))
	b, err := New(cfg)
	if err != nil {
		t.Fatalf("New failed where Must(New) succeeded: %v", err)
	}
	for i := range a.Nodes {
		if a.Nodes[i].Pos != b.Nodes[i].Pos {
			t.Fatalf("node %d placed at %v vs %v", i, a.Nodes[i].Pos, b.Nodes[i].Pos)
		}
	}
	sa, _ := json.Marshal(a.Metrics.Snapshot())
	sb, _ := json.Marshal(b.Metrics.Snapshot())
	if string(sa) != string(sb) {
		t.Error("initial metric snapshots differ between two builds of one config")
	}
}

// TestNewStillPanics pins the backstop behavior for hand-written
// experiment code: Must turns the construction error into a panic.
func TestNewStillPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Must(New) did not panic on N=0")
		}
	}()
	Must(New(Config{N: 0, Seed: 1}))
}
