package snapshot_test

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"routeless/internal/scenario"
	"routeless/internal/snapshot"
)

// frame wraps a scenario document in a well-formed current-version
// envelope (pause time t, zero digests, correct checksum), so a seed
// reaches the embedded-document decoder instead of stopping at the CRC.
func frame(doc []byte, t float64) []byte {
	buf := binary.LittleEndian.AppendUint32([]byte(snapshot.Magic), snapshot.Version)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(doc)))
	buf = append(buf, doc...)
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(t))
	buf = append(buf, make([]byte, 6*8)...)
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
}

// FuzzRead: whatever the bytes, Read either succeeds or fails with a
// typed error — ErrTruncated, ErrCorrupt, ErrVersion, or a wrapped
// scenario.ErrParse/ErrInvalid from the embedded document — and never
// panics or hangs.
func FuzzRead(f *testing.F) {
	saved, _ := saveAt(f, fig1Scenario(scenario.ProtoCounter1, 1), 1)
	f.Add(saved)
	f.Add(saved[:len(saved)/2])
	for _, doc := range []string{`{not json`, `{"seed":1,"bogus":true}`, `{"seed":1} {"seed":2}`, `{"n":1}`} {
		f.Add(frame([]byte(doc), 0.5))
	}
	paths, err := filepath.Glob(filepath.Join("..", "fuzz", "testdata", "*.json"))
	if err != nil || len(paths) == 0 {
		f.Fatalf("no simfuzz fixtures found (err %v)", err)
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		var fx struct {
			Scenario json.RawMessage `json:"scenario"`
		}
		if err := json.Unmarshal(data, &fx); err != nil {
			f.Fatalf("%s: %v", p, err)
		}
		f.Add(frame(fx.Scenario, 0.5))
	}
	typed := []error{snapshot.ErrTruncated, snapshot.ErrCorrupt, snapshot.ErrVersion, scenario.ErrParse, scenario.ErrInvalid}
	f.Fuzz(func(t *testing.T, data []byte) {
		// A hang becomes a crash, which the fuzzer reports with its input.
		defer time.AfterFunc(3*time.Second, func() { panic("snapshot.Read ran longer than 3 s") }).Stop()
		_, err := snapshot.Read(bytes.NewReader(data))
		if err == nil {
			return
		}
		for _, want := range typed {
			if errors.Is(err, want) {
				return
			}
		}
		t.Fatalf("untyped error: %v", err)
	})
}
