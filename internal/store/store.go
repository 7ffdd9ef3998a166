// Package store is a disk-backed, content-addressed artifact store for
// simulation campaigns: results are keyed by a canonical SHA-256 hash of
// the normalized options that produced them (so identical requests hit
// the cache instead of re-simulating), and job checkpoints are keyed the
// same way so a killed process resumes a campaign instead of restarting
// it.
//
// Durability model: every write goes to a temp file in the target
// directory and is renamed into place, so a crash never leaves a
// half-written artifact under a live name. There is no index: the
// results directory is the one record of what is stored. Open scans it
// and rebuilds the in-memory LRU from the files' modification times,
// which PutResult and GetResult set to the time of the access, so read
// recency survives a restart. A file that is unreadable or corrupted
// costs a cache miss, never a panic or a failed open.
//
// The result area is LRU-capped by total bytes: inserting past the cap
// evicts least-recently-used entries. Checkpoints are small and bounded
// by the number of in-flight jobs, so they are not capped.
package store

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// Key returns the canonical content address of v: the hex SHA-256 of its
// JSON encoding. Struct fields marshal in declaration order and map keys
// sort, so equal values produce equal keys. Callers must normalize v
// (apply defaults) before hashing — see jobs.Spec.Normalize — so that a
// zero field and its explicit default map to the same address.
func Key(v any) (string, error) {
	data, err := json.Marshal(v)
	if err != nil {
		return "", fmt.Errorf("store: hashing key: %w", err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}

// ETag renders a content key (or any stable identity string) as a
// strong HTTP entity tag. The store's keys are already collision-free
// content addresses — the SHA-256 of the normalized spec that
// deterministically produced the result — so a key equality check is a
// byte equality check on the payload, which is exactly the contract a
// strong ETag makes: the HTTP layer can answer If-None-Match with 304
// without touching (or re-marshalling) the stored bytes.
func ETag(identity string) string { return `"` + identity + `"` }

// DefaultMaxBytes caps the result area when Options.MaxBytes is zero.
const DefaultMaxBytes = 256 << 20 // 256 MiB

// Options configures a Store.
type Options struct {
	// MaxBytes caps the total size of stored results; least-recently-used
	// entries are evicted past it. 0 selects DefaultMaxBytes; negative
	// disables the cap.
	MaxBytes int64
	// Logf sinks corruption warnings and eviction notices (default
	// log.Printf).
	Logf func(format string, args ...any)
}

// entry is one stored result in the in-memory LRU.
type entry struct {
	key  string
	size int64
	// seq is the logical access clock: higher = more recently used.
	seq int64
}

// Store is a content-addressed result store plus a checkpoint area.
type Store struct {
	dir      string
	maxBytes int64
	logf     func(string, ...any)

	mu      sync.Mutex
	entries map[string]*entry
	seq     int64
	total   int64
}

const (
	resultsDir = "results"
	jobsDir    = "jobs"
	// indexName is the result index an older version kept in resultsDir;
	// Open ignores it.
	indexName = "index.json"
	jsonExt   = ".json"
)

// Open creates (or reopens) the store rooted at dir.
func Open(dir string, opts Options) (*Store, error) {
	if opts.MaxBytes == 0 {
		opts.MaxBytes = DefaultMaxBytes
	}
	if opts.Logf == nil {
		opts.Logf = log.Printf
	}
	for _, d := range []string{dir, filepath.Join(dir, resultsDir), filepath.Join(dir, jobsDir)} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
	}
	s := &Store{
		dir:      dir,
		maxBytes: opts.MaxBytes,
		logf:     opts.Logf,
		entries:  make(map[string]*entry),
	}
	s.scanResults()
	return s, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// validKey reports whether k is safe to use as a file stem. Keys are
// SHA-256 hex in practice; the check keeps a hostile key from escaping
// the store directory.
func validKey(k string) bool {
	if k == "" || len(k) > 128 {
		return false
	}
	for _, c := range k {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '_':
		default:
			return false
		}
	}
	return true
}

func (s *Store) resultPath(key string) string {
	return filepath.Join(s.dir, resultsDir, key+jsonExt)
}

func (s *Store) jobPath(key string) string {
	return filepath.Join(s.dir, jobsDir, key+jsonExt)
}

// scanResults rebuilds the in-memory LRU from the results directory:
// every <key>.json with a valid key enters, least recently used first by
// modification time, ties broken by key.
func (s *Store) scanResults() {
	des, err := os.ReadDir(filepath.Join(s.dir, resultsDir))
	if err != nil {
		s.logf("store: listing results: %v", err)
		return
	}
	type found struct {
		entry
		mtime time.Time
	}
	var all []found
	for _, de := range des {
		key, isJSON := strings.CutSuffix(de.Name(), jsonExt)
		if !isJSON || de.Name() == indexName || de.IsDir() || !validKey(key) {
			continue
		}
		fi, err := de.Info()
		if err != nil {
			continue
		}
		all = append(all, found{entry{key: key, size: fi.Size()}, fi.ModTime()})
	}
	sort.Slice(all, func(i, j int) bool {
		if !all[i].mtime.Equal(all[j].mtime) {
			return all[i].mtime.Before(all[j].mtime)
		}
		return all[i].key < all[j].key
	})
	for i := range all {
		e := all[i].entry
		s.seq++
		e.seq = s.seq
		s.entries[e.key] = &e
		s.total += e.size
	}
}

// touch sets the modification time of key's result to now: the recency
// Open rebuilds the LRU from. A failure costs only that recency.
func (s *Store) touch(key string) {
	now := time.Now()
	_ = os.Chtimes(s.resultPath(key), now, now)
}

// atomicWrite writes data to a temp file next to path and renames it into
// place, so readers never observe a partial file under the final name.
func atomicWrite(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return err
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return err
	}
	return nil
}

// PutResult stores data under key, evicting least-recently-used results
// if the total exceeds the size cap. An oversized single artifact is
// rejected rather than flushing the whole cache for it.
func (s *Store) PutResult(key string, data []byte) error {
	if !validKey(key) {
		return fmt.Errorf("store: invalid key %q", key)
	}
	if s.maxBytes > 0 && int64(len(data)) > s.maxBytes {
		return fmt.Errorf("store: result %s (%d bytes) exceeds the %d-byte cap", key, len(data), s.maxBytes)
	}
	if err := atomicWrite(s.resultPath(key), data); err != nil {
		return fmt.Errorf("store: writing result: %w", err)
	}
	s.touch(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if old := s.entries[key]; old != nil {
		s.total -= old.size
	}
	s.seq++
	s.entries[key] = &entry{key: key, size: int64(len(data)), seq: s.seq}
	s.total += int64(len(data))
	s.evictLocked()
	return nil
}

// evictLocked removes least-recently-used entries until the total fits
// the cap. Callers hold s.mu.
func (s *Store) evictLocked() {
	for s.maxBytes > 0 && s.total > s.maxBytes && len(s.entries) > 1 {
		var victim *entry
		for _, e := range s.entries {
			if victim == nil || e.seq < victim.seq {
				victim = e
			}
		}
		if victim == nil {
			return
		}
		if err := os.Remove(s.resultPath(victim.key)); err != nil && !os.IsNotExist(err) {
			s.logf("store: evicting %s: %v", victim.key, err)
		}
		s.total -= victim.size
		delete(s.entries, victim.key)
		s.logf("store: evicted result %s (%d bytes, LRU)", victim.key, victim.size)
	}
}

// GetResult returns the stored bytes for key and refreshes its LRU
// position, in memory and on disk. A missing or unreadable entry is a
// miss.
func (s *Store) GetResult(key string) ([]byte, bool) {
	if !validKey(key) {
		return nil, false
	}
	data, err := os.ReadFile(s.resultPath(key))
	if err != nil {
		return nil, false
	}
	s.mu.Lock()
	if e := s.entries[key]; e != nil {
		s.seq++
		e.seq = s.seq
	}
	s.mu.Unlock()
	s.touch(key)
	return data, true
}

// DeleteResult removes a stored result (e.g. one that failed to decode).
func (s *Store) DeleteResult(key string) {
	if !validKey(key) {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if e := s.entries[key]; e != nil {
		s.total -= e.size
		delete(s.entries, key)
	}
	if err := os.Remove(s.resultPath(key)); err != nil && !os.IsNotExist(err) {
		s.logf("store: deleting result %s: %v", key, err)
	}
}

// ResultBytes returns the current total size of the result area.
func (s *Store) ResultBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.total
}

// ResultCount returns the number of stored results.
func (s *Store) ResultCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// PutJob persists a job checkpoint under its spec key, atomically.
func (s *Store) PutJob(key string, data []byte) error {
	if !validKey(key) {
		return fmt.Errorf("store: invalid job key %q", key)
	}
	if err := atomicWrite(s.jobPath(key), data); err != nil {
		return fmt.Errorf("store: writing job checkpoint: %w", err)
	}
	return nil
}

// GetJob returns the checkpoint stored under key, if any.
func (s *Store) GetJob(key string) ([]byte, bool) {
	if !validKey(key) {
		return nil, false
	}
	data, err := os.ReadFile(s.jobPath(key))
	if err != nil {
		return nil, false
	}
	return data, true
}

// DeleteJob removes a job checkpoint (completed or cancelled jobs).
func (s *Store) DeleteJob(key string) {
	if !validKey(key) {
		return
	}
	if err := os.Remove(s.jobPath(key)); err != nil && !os.IsNotExist(err) {
		s.logf("store: deleting job %s: %v", key, err)
	}
}

// ListJobs returns every readable job checkpoint, keyed by spec key.
// Unreadable files are skipped with a warning — a corrupted checkpoint
// costs a restart of that one campaign, not the whole recovery.
func (s *Store) ListJobs() map[string][]byte {
	out := make(map[string][]byte)
	entries, err := os.ReadDir(filepath.Join(s.dir, jobsDir))
	if err != nil {
		s.logf("store: listing jobs: %v", err)
		return out
	}
	for _, de := range entries {
		name := de.Name()
		if de.IsDir() || !strings.HasSuffix(name, jsonExt) || strings.HasPrefix(name, ".tmp-") {
			continue
		}
		key := strings.TrimSuffix(name, jsonExt)
		if !validKey(key) {
			s.logf("store: skipping job file with invalid key %q", name)
			continue
		}
		data, err := os.ReadFile(s.jobPath(key))
		if err != nil {
			s.logf("store: skipping unreadable job %s: %v", key, err)
			continue
		}
		out[key] = data
	}
	return out
}
