package scenario_test

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"routeless/internal/scenario"
)

// fixtureDocs returns the scenario document of every committed
// simfuzz fixture, byte for byte as the fixture file spells it.
func fixtureDocs(tb testing.TB) [][]byte {
	paths, err := filepath.Glob(filepath.Join("..", "fuzz", "testdata", "*.json"))
	if err != nil || len(paths) == 0 {
		tb.Fatalf("no simfuzz fixtures found (err %v)", err)
	}
	var docs [][]byte
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			tb.Fatal(err)
		}
		var fx struct {
			Scenario json.RawMessage `json:"scenario"`
		}
		if err := json.Unmarshal(data, &fx); err != nil {
			tb.Fatalf("%s: %v", p, err)
		}
		docs = append(docs, fx.Scenario)
	}
	return docs
}

// FuzzParse: whatever the bytes, Parse either succeeds or fails with an
// error wrapping ErrParse or ErrInvalid — the split serve and wmansim
// turn into client errors — and never panics or hangs.
func FuzzParse(f *testing.F) {
	valid, err := json.Marshal(validDoc())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	for _, tc := range parseCases(f) {
		f.Add(tc.data)
	}
	for _, doc := range fixtureDocs(f) {
		f.Add([]byte(doc))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// A hang becomes a crash, which the fuzzer reports with its input.
		defer time.AfterFunc(3*time.Second, func() { panic("scenario.Parse ran longer than 3 s") }).Stop()
		_, err := scenario.Parse(data)
		if err != nil && !errors.Is(err, scenario.ErrParse) && !errors.Is(err, scenario.ErrInvalid) {
			t.Fatalf("untyped error: %v", err)
		}
	})
}
