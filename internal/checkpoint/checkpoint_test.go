package checkpoint

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// countObserver records observer callbacks for assertions.
type countObserver struct {
	mu                                    sync.Mutex
	written, retried, recovered, degraded int
}

func (o *countObserver) CheckpointWritten() { o.mu.Lock(); o.written++; o.mu.Unlock() }
func (o *countObserver) CheckpointRetried() { o.mu.Lock(); o.retried++; o.mu.Unlock() }
func (o *countObserver) CheckpointCorruptRecovered() {
	o.mu.Lock()
	o.recovered++
	o.mu.Unlock()
}
func (o *countObserver) CheckpointDegraded() { o.mu.Lock(); o.degraded++; o.mu.Unlock() }

func newStore(t *testing.T) (*Store, *countObserver) {
	t.Helper()
	obs := &countObserver{}
	return &Store{Dir: filepath.Join(t.TempDir(), "ckpt"), Observer: obs}, obs
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	payload := []byte(`{ "trials": 42,  "note": "a<b&c>d" }`)
	data, err := Encode("cell-1", 7, payload)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	got, gen, err := DecodeEnvelope(data, "cell-1")
	if err != nil {
		t.Fatalf("DecodeEnvelope: %v", err)
	}
	if gen != 7 {
		t.Fatalf("gen = %d, want 7", gen)
	}
	want := `{"trials":42,"note":"a<b&c>d"}`
	if string(got) != want {
		t.Fatalf("payload = %s, want %s", got, want)
	}
}

func TestEncodeRejectsInvalidJSON(t *testing.T) {
	if _, err := Encode("k", 1, []byte(`{"unclosed":`)); err == nil {
		t.Fatal("Encode accepted invalid JSON payload")
	}
}

func TestDecodeEnvelopeRejects(t *testing.T) {
	good, err := Encode("key", 3, []byte(`{"n":1}`))
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	cases := []struct {
		name string
		data []byte
		key  string
	}{
		{"garbage", []byte("not json at all"), "key"},
		{"truncated", good[:len(good)/2], "key"},
		{"empty", nil, "key"},
		{"bad magic", []byte(`{"magic":"nope","version":1,"key":"key","gen":1,"checksum_fnv1a64":"0","payload":{}}`), "key"},
		{"stale version", bytes.Replace(good, []byte(`"version":1`), []byte(`"version":99`), 1), "key"},
		{"key mismatch", good, "other-key"},
		{"flipped checksum bit", bytes.Replace(good, []byte(`"n":1`), []byte(`"n":2`), 1), "key"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := DecodeEnvelope(tc.data, tc.key)
			var ce *CorruptError
			if !errors.As(err, &ce) {
				t.Fatalf("err = %v, want *CorruptError", err)
			}
			if ce.Error() == "" {
				t.Fatal("empty CorruptError message")
			}
		})
	}
	// key "" skips the key check.
	if _, _, err := DecodeEnvelope(good, ""); err != nil {
		t.Fatalf("DecodeEnvelope with empty key: %v", err)
	}
}

func TestStoreSaveLoadGenerations(t *testing.T) {
	s, obs := newStore(t)
	for i := 1; i <= 5; i++ {
		gen, err := s.Save("k", []byte(fmt.Sprintf(`{"i":%d}`, i)))
		if err != nil {
			t.Fatalf("Save %d: %v", i, err)
		}
		if gen != uint64(i) {
			t.Fatalf("Save %d returned gen %d", i, gen)
		}
	}
	payload, gen, err := s.Load("k")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if gen != 5 || string(payload) != `{"i":5}` {
		t.Fatalf("Load = gen %d payload %s", gen, payload)
	}
	// GC keeps only the last 2 generations.
	if gens := s.generations(); len(gens) != 2 || gens[0] != 4 || gens[1] != 5 {
		t.Fatalf("generations after GC = %v, want [4 5]", gens)
	}
	if obs.written != 5 {
		t.Fatalf("written = %d, want 5", obs.written)
	}
}

func TestStoreLoadEmpty(t *testing.T) {
	s, _ := newStore(t)
	if _, _, err := s.Load("k"); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("Load on empty store: %v, want ErrNoCheckpoint", err)
	}
}

func TestStoreFallsBackPastCorruptNewest(t *testing.T) {
	s, obs := newStore(t)
	if _, err := s.Save("k", []byte(`{"i":1}`)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Save("k", []byte(`{"i":2}`)); err != nil {
		t.Fatal(err)
	}
	// Corrupt the newest generation in place (truncate to half).
	newest := filepath.Join(s.Dir, genName(2))
	data, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(newest, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	payload, gen, err := s.Load("k")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if gen != 1 || string(payload) != `{"i":1}` {
		t.Fatalf("Load = gen %d payload %s, want gen 1 {\"i\":1}", gen, payload)
	}
	if obs.recovered != 1 {
		t.Fatalf("recovered = %d, want 1", obs.recovered)
	}
}

func TestStoreAllGenerationsCorrupt(t *testing.T) {
	s, _ := newStore(t)
	if _, err := s.Save("k", []byte(`{"i":1}`)); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(s.Dir, genName(1))
	if err := os.WriteFile(path, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err := s.Load("k")
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want *CorruptError", err)
	}
	if ce.Path != path || ce.Gen != 1 {
		t.Fatalf("CorruptError path/gen = %q/%d, want %q/1", ce.Path, ce.Gen, path)
	}
}

func TestStoreRetriesTransientWriteErrors(t *testing.T) {
	ffs := &FaultFS{}
	obs := &countObserver{}
	s := &Store{FS: ffs, Dir: filepath.Join(t.TempDir(), "ckpt"), Observer: obs}
	ffs.FailWrites(2, errors.New("injected ENOSPC"))
	if _, err := s.Save("k", []byte(`{"i":1}`)); err != nil {
		t.Fatalf("Save with 2 transient failures: %v", err)
	}
	if obs.retried != 2 {
		t.Fatalf("retried = %d, want 2", obs.retried)
	}
	if _, gen, err := s.Load("k"); err != nil || gen != 1 {
		t.Fatalf("Load after retried save: gen %d err %v", gen, err)
	}
}

func TestStoreExhaustsRetriesOnPermanentError(t *testing.T) {
	ffs := &FaultFS{}
	s := &Store{FS: ffs, Dir: filepath.Join(t.TempDir(), "ckpt")}
	werr := errors.New("injected EACCES")
	ffs.SetPermanentError(werr)
	if _, err := s.Save("k", []byte(`{"i":1}`)); !errors.Is(err, werr) {
		t.Fatalf("Save under permanent error = %v, want wrapped %v", err, werr)
	}
}

func TestStoreSurvivesTornWrite(t *testing.T) {
	ffs := &FaultFS{}
	obs := &countObserver{}
	s := &Store{FS: ffs, Dir: filepath.Join(t.TempDir(), "ckpt"), Observer: obs}
	if _, err := s.Save("k", []byte(`{"i":1}`)); err != nil {
		t.Fatal(err)
	}
	// The next write tears: half the bytes land, success is reported.
	ffs.TearWrites(1)
	if _, err := s.Save("k", []byte(`{"i":2}`)); err != nil {
		t.Fatalf("torn Save reported error: %v", err)
	}
	payload, gen, err := s.Load("k")
	if err != nil {
		t.Fatalf("Load after torn write: %v", err)
	}
	if gen != 1 || string(payload) != `{"i":1}` {
		t.Fatalf("Load = gen %d payload %s, want fallback to gen 1", gen, payload)
	}
	if obs.recovered != 1 {
		t.Fatalf("recovered = %d, want 1", obs.recovered)
	}
}

func TestWriteDurableRetries(t *testing.T) {
	ffs := &FaultFS{}
	obs := &countObserver{}
	path := filepath.Join(t.TempDir(), "sink", "out.json")
	ffs.FailRenames(1, errors.New("injected EIO"))
	if err := WriteDurable(ffs, path, []byte("payload"), obs); err != nil {
		t.Fatalf("WriteDurable: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil || string(data) != "payload" {
		t.Fatalf("read back: %s, %v", data, err)
	}
	if obs.retried != 1 {
		t.Fatalf("retried = %d, want 1", obs.retried)
	}
}

func TestStoreRejectsForeignKey(t *testing.T) {
	s, _ := newStore(t)
	if _, err := s.Save("campaign-a", []byte(`{"i":1}`)); err != nil {
		t.Fatal(err)
	}
	_, _, err := s.Load("campaign-b")
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("cross-campaign Load = %v, want *CorruptError", err)
	}
	// LoadLatest skips the key check.
	if _, _, err := s.LoadLatest(); err != nil {
		t.Fatalf("LoadLatest: %v", err)
	}
}

func TestParseGen(t *testing.T) {
	if g, ok := parseGen(genName(12)); !ok || g != 12 {
		t.Fatalf("parseGen(genName(12)) = %d, %v", g, ok)
	}
	for _, bad := range []string{"gen-.ckpt", "gen-12", "12.ckpt", "gen-x.ckpt", "gen--1.ckpt"} {
		if _, ok := parseGen(bad); ok {
			t.Fatalf("parseGen(%q) accepted", bad)
		}
	}
}
