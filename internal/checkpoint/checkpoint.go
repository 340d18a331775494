package checkpoint

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

const (
	// Magic identifies a checkpoint envelope; anything else under a
	// checkpoint directory is garbage (a torn write, a stray file) and is
	// rejected with a CorruptError instead of being misinterpreted.
	Magic = "pctwm-checkpoint"
	// Version is the current envelope format version. Loaders reject
	// other versions as corrupt (stale-version detection): a campaign
	// must never resume from state written by an incompatible build.
	Version = 1
)

// ErrNoCheckpoint is returned by Load when the store's directory holds
// no checkpoint at all — a fresh campaign, not a failure.
var ErrNoCheckpoint = errors.New("checkpoint: no checkpoint found")

// CorruptError describes a checkpoint generation that failed
// validation: truncated or garbage bytes (a torn write), a checksum
// mismatch (bit rot), a stale format version, or a campaign-key
// mismatch. Load skips past corrupt generations to the previous good
// one; a CorruptError is only returned when no generation validates.
type CorruptError struct {
	// Path is the offending file ("" when the envelope was decoded from
	// bytes without a file, e.g. by the fuzz target).
	Path string
	// Gen is the generation number from the filename (0 when unknown).
	Gen uint64
	// Reason says what failed.
	Reason string
}

func (e *CorruptError) Error() string {
	where := e.Path
	if where == "" {
		where = "checkpoint envelope"
	}
	if e.Gen > 0 {
		return fmt.Sprintf("checkpoint: %s (generation %d): %s", where, e.Gen, e.Reason)
	}
	return fmt.Sprintf("checkpoint: %s: %s", where, e.Reason)
}

// Observer receives durability telemetry from a Store (and from
// WriteDurable). telemetry.Metrics implements it; a nil Observer is
// silently ignored everywhere.
type Observer interface {
	// CheckpointWritten counts one committed checkpoint generation.
	CheckpointWritten()
	// CheckpointRetried counts one retry of a durable write after a
	// transient error.
	CheckpointRetried()
	// CheckpointCorruptRecovered counts one load that skipped past a
	// corrupt generation to an older good one.
	CheckpointCorruptRecovered()
	// CheckpointDegraded counts a campaign giving up on durable writes
	// (the directory became unwritable; the campaign keeps running).
	CheckpointDegraded()
}

// The durable-write policy: a write gets writeAttempts attempts, the
// first retry writeBackoff after the first failure and each later one
// twice as long after the one before, and a Store keeps its
// keepGenerations newest generations: the current one plus the fallback
// a corrupt write recovers to.
const (
	writeAttempts   = 4
	writeBackoff    = 2 * time.Millisecond
	keepGenerations = 2
)

// envelope is the on-disk checkpoint frame. Payload is stored as raw
// JSON so the checksum covers the exact bytes on disk.
type envelope struct {
	Magic    string          `json:"magic"`
	Version  int             `json:"version"`
	Key      string          `json:"key"`
	Gen      uint64          `json:"gen"`
	Checksum string          `json:"checksum_fnv1a64"`
	Payload  json.RawMessage `json:"payload"`
}

// checksum is FNV-1a/64 of the payload bytes, hex-encoded. Fast, stdlib,
// and plenty to detect truncation and bit flips (this is an integrity
// check against torn writes, not an authenticity check).
func checksum(payload []byte) string {
	h := fnv.New64a()
	h.Write(payload)
	return fmt.Sprintf("%016x", h.Sum64())
}

// Encode frames payload (which must be valid JSON) as a checkpoint
// envelope for key and generation gen. The payload is compacted first so
// the checksum covers exactly the bytes that land on disk (json.Marshal
// compacts RawMessage when writing the envelope).
func Encode(key string, gen uint64, payload []byte) ([]byte, error) {
	var compact bytes.Buffer
	if err := json.Compact(&compact, payload); err != nil {
		return nil, fmt.Errorf("checkpoint: payload is not valid JSON: %w", err)
	}
	v := json.RawMessage(compact.Bytes())
	env := envelope{
		Magic:    Magic,
		Version:  Version,
		Key:      key,
		Gen:      gen,
		Checksum: checksum(v),
		Payload:  v,
	}
	// Encode without HTML escaping so the payload bytes on disk are
	// byte-identical to the compacted bytes the checksum covers
	// (json.Marshal would rewrite <, >, & inside the RawMessage).
	var out bytes.Buffer
	enc := json.NewEncoder(&out)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(env); err != nil {
		return nil, err
	}
	return bytes.TrimRight(out.Bytes(), "\n"), nil
}

// DecodeEnvelope validates a checkpoint envelope and returns its payload
// and generation. key "" skips the campaign-key check (used to inspect a
// store whose key is unknown). Every failure — garbage bytes, bad magic,
// stale version, key mismatch, checksum mismatch — is a *CorruptError;
// DecodeEnvelope never panics on any input (see the fuzz target).
func DecodeEnvelope(data []byte, key string) (payload []byte, gen uint64, err error) {
	var env envelope
	if jerr := json.Unmarshal(data, &env); jerr != nil {
		return nil, 0, &CorruptError{Reason: "not a valid JSON envelope (torn write?): " + jerr.Error()}
	}
	if env.Magic != Magic {
		return nil, 0, &CorruptError{Gen: env.Gen, Reason: fmt.Sprintf("bad magic %q", env.Magic)}
	}
	if env.Version != Version {
		return nil, 0, &CorruptError{Gen: env.Gen, Reason: fmt.Sprintf("stale format version %d (this build writes %d)", env.Version, Version)}
	}
	if key != "" && env.Key != key {
		return nil, 0, &CorruptError{Gen: env.Gen, Reason: "campaign key mismatch (directory shared by a different campaign?)"}
	}
	if got := checksum(env.Payload); got != env.Checksum {
		return nil, 0, &CorruptError{Gen: env.Gen, Reason: fmt.Sprintf("checksum mismatch: envelope says %s, payload hashes to %s", env.Checksum, got)}
	}
	return env.Payload, env.Gen, nil
}

// Store reads and writes the numbered checkpoint generations of one
// campaign cell under Dir. The zero value plus Dir is ready to use on the
// real filesystem. Stores are cheap; create one per cell.
type Store struct {
	// FS is the filesystem written through (nil = OS).
	FS FS
	// Dir holds this store's generation files (created on first Save).
	Dir string
	// Observer receives durability telemetry (may be nil).
	Observer Observer
}

func (s *Store) fsys() FS {
	if s.FS == nil {
		return OS
	}
	return s.FS
}

const genSuffix = ".ckpt"

// genName renders a generation filename; zero-padding makes
// lexicographic order equal numeric order.
func genName(gen uint64) string {
	return fmt.Sprintf("gen-%016d%s", gen, genSuffix)
}

// Slug maps a name onto a filesystem-safe file-name component: ASCII
// letters, digits, '-', '_' and '.' stay, every other rune becomes '_'.
// Campaign cell directories and repro bundles are named with it.
func Slug(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '_', r == '.':
			return r
		default:
			return '_'
		}
	}, s)
}

// parseGen extracts the generation number from a filename (ok=false for
// anything that is not a generation file).
func parseGen(name string) (uint64, bool) {
	if !strings.HasPrefix(name, "gen-") || !strings.HasSuffix(name, genSuffix) {
		return 0, false
	}
	n, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "gen-"), genSuffix), 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// generations lists the generation numbers present, ascending. A missing
// directory is an empty store, not an error.
func (s *Store) generations() []uint64 {
	entries, err := s.fsys().ReadDir(s.Dir)
	if err != nil {
		return nil
	}
	var gens []uint64
	for _, e := range entries {
		if g, ok := parseGen(e.Name()); ok {
			gens = append(gens, g)
		}
	}
	sort.Slice(gens, func(i, j int) bool { return gens[i] < gens[j] })
	return gens
}

// Save writes payload (valid JSON) as the next generation for key:
// envelope + checksum, temp-file write, atomic rename, bounded retries
// with exponential backoff, then GC of the older generations. Returns
// the generation number written.
func (s *Store) Save(key string, payload []byte) (uint64, error) {
	gen := uint64(1)
	if gens := s.generations(); len(gens) > 0 {
		gen = gens[len(gens)-1] + 1
	}
	data, err := Encode(key, gen, payload)
	if err != nil {
		return 0, err
	}
	path := filepath.Join(s.Dir, genName(gen))
	if err := s.writeDurable(path, data); err != nil {
		return 0, fmt.Errorf("checkpoint: writing generation %d: %w", gen, err)
	}
	if s.Observer != nil {
		s.Observer.CheckpointWritten()
	}
	s.gc(gen)
	return gen, nil
}

// gc removes generations older than the keepGenerations newest. Removal
// errors are ignored: stale generations are garbage, not state.
func (s *Store) gc(newest uint64) {
	for _, g := range s.generations() {
		if g+keepGenerations <= newest {
			_ = s.fsys().Remove(filepath.Join(s.Dir, genName(g)))
		}
	}
}

// writeDurable is one atomic (temp + rename) write with bounded retry
// and exponential backoff on any error.
func (s *Store) writeDurable(path string, data []byte) error {
	var err error
	for i := 0; i < writeAttempts; i++ {
		if i > 0 {
			if s.Observer != nil {
				s.Observer.CheckpointRetried()
			}
			time.Sleep(writeBackoff << (i - 1))
		}
		if err = writeOnce(s.fsys(), path, data); err == nil {
			return nil
		}
	}
	return err
}

// writeOnce performs a single atomic write attempt.
func writeOnce(fsys FS, path string, data []byte) error {
	if err := fsys.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := fsys.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return fsys.Rename(tmp, path)
}

// WriteDurable writes data to path atomically (temp file + rename) with
// the same bounded-retry/backoff policy Store.Save uses — the shared
// hardening for every durable sink (repro bundles, snapshot files) that
// is not itself a generational checkpoint. obs may be nil.
func WriteDurable(fsys FS, path string, data []byte, obs Observer) error {
	s := &Store{FS: fsys, Observer: obs}
	return s.writeDurable(path, data)
}

// Load returns the payload of the newest generation that validates for
// key, skipping past corrupt generations (torn writes, checksum
// mismatches, stale versions) to older ones — never panicking, never
// crashing the campaign. It returns ErrNoCheckpoint for an empty or
// missing store, and the newest generation's CorruptError when no
// generation validates.
func (s *Store) Load(key string) (payload []byte, gen uint64, err error) {
	return s.load(key)
}

// LoadLatest is Load without the campaign-key check, for tools that
// inspect a checkpoint directory without knowing which campaign wrote
// it (e.g. pctwm replay -campaign).
func (s *Store) LoadLatest() (payload []byte, gen uint64, err error) {
	return s.load("")
}

func (s *Store) load(key string) ([]byte, uint64, error) {
	gens := s.generations()
	if len(gens) == 0 {
		return nil, 0, ErrNoCheckpoint
	}
	var firstErr error
	for i := len(gens) - 1; i >= 0; i-- {
		path := filepath.Join(s.Dir, genName(gens[i]))
		var cerr error
		var payload []byte
		data, rerr := s.fsys().ReadFile(path)
		if rerr != nil {
			cerr = &CorruptError{Path: path, Gen: gens[i], Reason: "unreadable: " + rerr.Error()}
		} else {
			var envGen uint64
			payload, envGen, cerr = DecodeEnvelope(data, key)
			if cerr == nil && envGen != gens[i] {
				cerr = &CorruptError{Path: path, Gen: gens[i], Reason: fmt.Sprintf("envelope records generation %d under filename generation %d", envGen, gens[i])}
			}
			if ce, ok := cerr.(*CorruptError); ok {
				ce.Path, ce.Gen = path, gens[i]
			}
		}
		if cerr != nil {
			if firstErr == nil {
				firstErr = cerr
			}
			continue
		}
		if firstErr != nil && s.Observer != nil {
			s.Observer.CheckpointCorruptRecovered()
		}
		return payload, gens[i], nil
	}
	return nil, 0, firstErr
}
