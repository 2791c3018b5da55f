package fuzz

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"routeless/internal/scenario"
)

// Fixture is a replayable failing scenario: the shrunken scenario, the
// verdict that flagged it, and a human note on what bug it pinned.
// Fixtures are committed under testdata/ next to a regression test that
// replays them, so every bug the fuzzer ever found stays fixed.
type Fixture struct {
	// Scenario is the (shrunken) reproducer.
	Scenario scenario.Scenario `json:"scenario"`
	// Verdict is the verdict the scenario produced when captured.
	Verdict string `json:"verdict"`
	// Detail is the captured failure detail (first violation, panic
	// message head, divergence site).
	Detail string `json:"detail,omitempty"`
	// Note says which bug this fixture pins, for the human reading the
	// testdata directory.
	Note string `json:"note,omitempty"`
}

// Encode renders the fixture as indented JSON with a trailing newline —
// the committed-file form.
func (f Fixture) Encode() ([]byte, error) {
	b, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// DecodeFixture parses a fixture, rejecting unknown fields so a stale
// fixture schema fails loudly instead of replaying the wrong scenario.
func DecodeFixture(b []byte) (Fixture, error) {
	var f Fixture
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		return Fixture{}, fmt.Errorf("fuzz: bad fixture: %w", err)
	}
	return f, nil
}

// LoadFixture reads and decodes a fixture file.
func LoadFixture(path string) (Fixture, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return Fixture{}, err
	}
	return DecodeFixture(b)
}
