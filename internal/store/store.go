// Package store is the persistent, content-addressed result store: the
// on-disk continuation of the sweep executor's in-process fingerprint
// cache. The in-memory cache (internal/sweep) dedupes repeated points
// within one Run call and dies with the process; this store keys the
// same canonical sweep.Fingerprint to a file, so repeated sweeps across
// processes, CI runs and machines only ever simulate a configuration
// once.
//
// Three properties make the cache safe to share:
//
//   - Content addressing. An entry's name is the sha256 fingerprint of
//     the fully resolved configuration — the same key the in-memory
//     cache uses — so a hit is exact by construction: there is nothing
//     to compare, only to verify.
//
//   - Version namespacing. Entries live under a namespace derived from
//     the store format revision, the obs report schema (obs.Schema) and
//     the pinned facade surface (api/aanoc.txt's sha256). Any reviewed
//     API change or schema bump rotates the namespace, so a binary can
//     never misread an entry written by a build with a different shape
//     of Result. Stale namespaces are invisible, and nothing reclaims
//     them: Open, Put and eviction touch only the current namespace's
//     directory, so an operator deletes a rotated-out <root>/v<n>-*.
//
//   - Integrity checking. An entry is one header line — namespace,
//     fingerprint and the sha256 of the payload — then the Result in the
//     binary form of codec.go, written atomically (temp file + rename).
//     A torn write, a flipped bit or a truncated file fails
//     verification; Get deletes the entry and reports ErrCorrupt, and
//     the caller re-simulates — corruption costs one redundant run,
//     never a wrong result.
//
// The store is bounded: the current namespace's SizeBytes is capped
// (Options.MaxBytes) with least-recently-used eviction, where "use" is a
// verified Get (hits refresh the entry's mtime). Concurrent writers of
// one fingerprint are benign — every writer produces identical bytes for
// a deterministic simulator, and rename makes whichever lands last the
// single entry.
package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"time"

	"aanoc/api"
	"aanoc/internal/obs"
	"aanoc/internal/system"
)

// formatVersion is the store's own layout revision: bump it when the
// entry layout, the directory scheme or the type tree the payload
// encodes changes (TestPayloadShapePinned catches the last).
const formatVersion = 2

// DefaultMaxBytes caps the store at 1 GiB unless Options overrides it —
// roomy for hundreds of thousands of entries (a full-observability
// Result serializes to a few kilobytes) while bounded on CI runners.
const DefaultMaxBytes = 1 << 30

// ErrCorrupt marks an entry that failed integrity verification: a
// payload-hash mismatch, a foreign namespace or fingerprint, or an
// undecodable payload. Get wraps it (and removes the entry) so callers can
// distinguish "never stored" from "stored and damaged"; both degrade to
// re-simulation.
var ErrCorrupt = errors.New("store: corrupt entry")

// Options configure Open.
type Options struct {
	// MaxBytes bounds the namespace's total entry bytes; at or above it,
	// Put evicts least-recently-used entries. Zero or negative selects
	// DefaultMaxBytes.
	MaxBytes int64
}

// Stats counts one Store handle's traffic (not the directory's
// lifetime totals — counters start at zero per Open).
type Stats struct {
	// Hits counts verified Gets; Misses counts Gets that found no entry.
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	// Corrupt counts entries that failed verification (each was removed
	// and reported as ErrCorrupt).
	Corrupt int64 `json:"corrupt"`
	// Puts counts entries written; PutErrors counts results that could
	// not be serialized or persisted (the caller degrades to an
	// uncached run).
	Puts      int64 `json:"puts"`
	PutErrors int64 `json:"putErrors"`
	// Evictions counts entries removed by the LRU size cap.
	Evictions int64 `json:"evictions"`
	// Entries and SizeBytes describe the namespace right now.
	Entries   int   `json:"entries"`
	SizeBytes int64 `json:"sizeBytes"`
}

// Store is one process's handle on a result-store directory. It is safe
// for concurrent use; cross-process coordination rests on atomic rename
// plus determinism (identical writers) rather than locks.
type Store struct {
	dir     string // namespace directory: <root>/<version>
	version string
	max     int64

	mu sync.Mutex
	st Stats
}

// Version is the namespace entries are read and written under:
// "v<format>-s<obs schema>-<api surface hash prefix>". It changes —
// retiring every existing entry — when the store layout, the report
// schema, or the pinned facade surface does.
func Version() string {
	return fmt.Sprintf("v%d-s%d-%s", formatVersion, obs.Schema, api.Hash()[:12])
}

// Open creates (if needed) and scans the store rooted at dir. The scan
// prices the current namespace for the LRU cap; foreign namespaces
// under the same root are left untouched.
func Open(dir string, o Options) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("store: empty directory")
	}
	max := o.MaxBytes
	if max <= 0 {
		max = DefaultMaxBytes
	}
	s := &Store{dir: filepath.Join(dir, Version()), version: Version(), max: max}
	if err := os.MkdirAll(s.dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	entries, size, err := s.scan()
	if err != nil {
		return nil, err
	}
	s.st.Entries, s.st.SizeBytes = len(entries), size
	return s, nil
}

// path shards entries by the first fingerprint byte so no directory
// grows unboundedly.
func (s *Store) path(fp string) (string, error) {
	if !validFingerprint(fp) {
		return "", fmt.Errorf("store: malformed fingerprint %q", fp)
	}
	return s.dir + sep + fp[:2] + sep + fp + ".bin", nil
}

// sep joins an entry's path: s.dir is already clean and fp is hex, so
// concatenation gives what filepath.Join would, in one allocation.
const sep = string(filepath.Separator)

// validFingerprint accepts exactly the hex sha256 sweep.Fingerprint
// emits — the check is also what keeps externally supplied fingerprints
// (the aanoc serve results endpoint) from escaping the store directory.
func validFingerprint(fp string) bool {
	if len(fp) != 64 {
		return false
	}
	for i := 0; i < len(fp); i++ {
		c := fp[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// Get returns the stored result for a fingerprint. ok reports a
// verified hit. A missing entry is (zero, false, nil); a damaged one is
// removed and reported as an error wrapping ErrCorrupt — the caller
// treats both as "simulate it".
func (s *Store) Get(fp string) (system.Result, bool, error) {
	path, err := s.path(fp)
	if err != nil {
		return system.Result{}, false, err
	}
	f, err := os.Open(path)
	if errors.Is(err, fs.ErrNotExist) {
		s.count(func(st *Stats) { st.Misses++ })
		return system.Result{}, false, nil
	}
	if err != nil {
		return system.Result{}, false, fmt.Errorf("store: %w", err)
	}
	buf := readBufs.Get().(*bytes.Buffer)
	defer readBufs.Put(buf)
	buf.Reset()
	_, err = buf.ReadFrom(f)
	f.Close()
	if err != nil {
		return system.Result{}, false, fmt.Errorf("store: %w", err)
	}
	data := buf.Bytes()
	res, err := s.decode(fp, data)
	if err != nil {
		s.discardCorrupt(path, len(data))
		return system.Result{}, false, err
	}
	// A verified read refreshes the entry's recency for the LRU cap.
	now := time.Now()
	_ = os.Chtimes(path, now, now)
	s.count(func(st *Stats) { st.Hits++ })
	return res, true, nil
}

// readBufs recycles Get's read buffers: a warm one reads an entry with
// no allocation and no Stat. Nothing a decode returns points into one:
// decodePayload copies the payload into the string every decoded string
// is cut from.
var readBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// header appends an entry's first line, "<namespace> <fingerprint>
// <sha256 of payload>\n": what Put writes and decode expects.
func (s *Store) header(b []byte, fp string, payload []byte) []byte {
	sum := sha256.Sum256(payload)
	b = append(append(append(append(b, s.version...), ' '), fp...), ' ')
	return append(hex.AppendEncode(b, sum[:]), '\n')
}

// decode verifies and unpacks one entry's bytes: the header line must
// name this namespace, this fingerprint and the payload's hash.
func (s *Store) decode(fp string, data []byte) (system.Result, error) {
	var want [192]byte
	n := bytes.IndexByte(data, '\n') + 1
	if n == 0 || !bytes.Equal(data[:n], s.header(want[:0], fp, data[n:])) {
		return system.Result{}, fmt.Errorf("%w: %s: header %.160q is not namespace %s, this fingerprint and the payload's hash",
			ErrCorrupt, fp, data[:n], s.version)
	}
	var res system.Result
	if err := decodePayload(data[n:], &res); err != nil {
		return system.Result{}, fmt.Errorf("%w: %s: payload: %v", ErrCorrupt, fp, err)
	}
	return res, nil
}

// discardCorrupt removes a failed entry so the next writer repairs the
// store instead of tripping on it forever.
func (s *Store) discardCorrupt(path string, size int) {
	removed := os.Remove(path) == nil
	s.count(func(st *Stats) {
		st.Corrupt++
		if removed {
			st.Entries--
			st.SizeBytes -= int64(size)
		}
	})
}

// Put persists one result under its fingerprint: encode after a reserved
// header, hash, fill the header in, write to a temp file in the
// namespace, fsync-free rename into place. A result that cannot
// serialize (a NaN metric, say) returns an error and leaves the store
// unchanged — the caller keeps its in-memory result and simply loses
// persistence for that point. Every failure counts once, here, as a
// PutError.
func (s *Store) Put(fp string, res system.Result) error {
	err := s.put(fp, res)
	if err != nil {
		s.count(func(st *Stats) { st.PutErrors++ })
	}
	return err
}

func (s *Store) put(fp string, res system.Result) (err error) {
	path, err := s.path(fp)
	if err != nil {
		return err
	}
	v, e := reflect.ValueOf(&res).Elem(), encoder{}
	if resultPlan.encode(&e, v); e.err != nil {
		return fmt.Errorf("store: result for %s is not serializable: %w", fp, e.err)
	}
	// The header's length is fixed, so the entry is one allocation: the
	// payload goes after the reserved header, which is filled in once
	// the payload's hash is known.
	h := len(s.version) + 1 + len(fp) + 1 + 2*sha256.Size + 1
	e.buf = make([]byte, h, h+e.n)
	resultPlan.encode(&e, v)
	data := e.buf
	s.header(data[:0], fp, data[h:])
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	// Every failure from here on removes the temp file.
	defer func() {
		if err != nil {
			os.Remove(tmp.Name())
		}
	}()
	_, err = tmp.Write(data)
	if err == nil {
		err = tmp.Chmod(0o644)
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	prior := int64(0)
	if fi, err := os.Stat(path); err == nil {
		prior = fi.Size()
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	s.mu.Lock()
	s.st.SizeBytes += int64(len(data)) - prior
	if prior == 0 {
		s.st.Entries++
	}
	s.st.Puts++
	over := s.st.SizeBytes > s.max
	s.mu.Unlock()
	if over {
		s.evict(path)
	}
	return nil
}

// evict removes least-recently-used entries until the namespace fits
// the cap, sparing the entry just written (evicting your own write
// would make an over-cap store refuse every new point).
func (s *Store) evict(keep string) {
	entries, total, err := s.scan()
	if err != nil {
		return
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].mod.Before(entries[j].mod) })
	evicted := 0
	for _, e := range entries {
		if total <= s.max {
			break
		}
		if e.path != keep && os.Remove(e.path) == nil {
			total -= e.size
			evicted++
		}
	}
	s.count(func(st *Stats) {
		st.Entries -= evicted
		st.Evictions += int64(evicted)
		st.SizeBytes = total
	})
}

type scanned struct {
	path string
	size int64
	mod  time.Time
}

// scan walks the namespace's entry files (temp files excluded).
func (s *Store) scan() ([]scanned, int64, error) {
	var out []scanned
	var total int64
	err := filepath.WalkDir(s.dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || filepath.Ext(path) != ".bin" {
			return err
		}
		fi, err := d.Info()
		if err != nil {
			return nil // raced with an eviction; skip
		}
		out = append(out, scanned{path, fi.Size(), fi.ModTime()})
		total += fi.Size()
		return nil
	})
	if err != nil {
		return nil, 0, fmt.Errorf("store: %w", err)
	}
	return out, total, nil
}

// count applies a stats mutation under the lock.
func (s *Store) count(f func(*Stats)) {
	s.mu.Lock()
	f(&s.st)
	s.mu.Unlock()
}

// Stats snapshots the handle's counters and the namespace occupancy.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.st
}

// Dir returns the namespace directory entries live in (root joined
// with Version()) — what tests and tooling inspect.
func (s *Store) Dir() string { return s.dir }
