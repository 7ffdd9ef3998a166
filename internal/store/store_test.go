package store

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// quiet discards store warnings so corruption tests don't spam output.
func quiet(string, ...any) {}

func openTemp(t *testing.T, opts Options) (*Store, string) {
	t.Helper()
	dir := t.TempDir()
	if opts.Logf == nil {
		opts.Logf = quiet
	}
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s, dir
}

func TestKeyDeterministic(t *testing.T) {
	type spec struct {
		A int    `json:"a"`
		B string `json:"b"`
	}
	k1, err := Key(spec{A: 1, B: "x"})
	if err != nil {
		t.Fatal(err)
	}
	k2, err := Key(spec{A: 1, B: "x"})
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Errorf("equal values hashed differently: %s vs %s", k1, k2)
	}
	if len(k1) != 64 || !validKey(k1) {
		t.Errorf("key %q is not 64-char hex", k1)
	}
	k3, err := Key(spec{A: 2, B: "x"})
	if err != nil {
		t.Fatal(err)
	}
	if k1 == k3 {
		t.Error("different values share a key")
	}
}

func TestResultRoundtripAndReopen(t *testing.T) {
	s, dir := openTemp(t, Options{})
	key, _ := Key(map[string]int{"n": 1})
	want := []byte(`{"ok":true}`)
	if err := s.PutResult(key, want); err != nil {
		t.Fatalf("PutResult: %v", err)
	}
	got, ok := s.GetResult(key)
	if !ok || string(got) != string(want) {
		t.Fatalf("GetResult = %q, %v; want %q, true", got, ok, want)
	}
	if n := s.ResultCount(); n != 1 {
		t.Errorf("ResultCount = %d, want 1", n)
	}
	if b := s.ResultBytes(); b != int64(len(want)) {
		t.Errorf("ResultBytes = %d, want %d", b, len(want))
	}

	// A fresh Store over the same directory sees the same content.
	s2, err := Open(dir, Options{Logf: quiet})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	got, ok = s2.GetResult(key)
	if !ok || string(got) != string(want) {
		t.Fatalf("after reopen GetResult = %q, %v; want %q, true", got, ok, want)
	}
}

func TestLRUEviction(t *testing.T) {
	// Cap fits two 40-byte artifacts but not three.
	s, _ := openTemp(t, Options{MaxBytes: 100})
	payload := []byte(strings.Repeat("x", 40))
	if err := s.PutResult("aaa", payload); err != nil {
		t.Fatal(err)
	}
	if err := s.PutResult("bbb", payload); err != nil {
		t.Fatal(err)
	}
	// Touch aaa so bbb becomes the LRU victim.
	if _, ok := s.GetResult("aaa"); !ok {
		t.Fatal("aaa missing before eviction")
	}
	if err := s.PutResult("ccc", payload); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.GetResult("bbb"); ok {
		t.Error("bbb survived eviction; want LRU victim")
	}
	if _, ok := s.GetResult("aaa"); !ok {
		t.Error("aaa evicted despite recent access")
	}
	if _, ok := s.GetResult("ccc"); !ok {
		t.Error("ccc (just inserted) evicted")
	}
	if b := s.ResultBytes(); b > 100 {
		t.Errorf("ResultBytes = %d, want <= cap 100", b)
	}
}

func TestOversizedResultRejected(t *testing.T) {
	s, _ := openTemp(t, Options{MaxBytes: 10})
	if err := s.PutResult("big", []byte(strings.Repeat("x", 11))); err == nil {
		t.Error("oversized PutResult succeeded; want error")
	}
	if n := s.ResultCount(); n != 0 {
		t.Errorf("ResultCount = %d after rejected put, want 0", n)
	}
}

func TestCorruptedIndexRebuild(t *testing.T) {
	s, dir := openTemp(t, Options{})
	if err := s.PutResult("aaa", []byte("1")); err != nil {
		t.Fatal(err)
	}
	if err := s.PutResult("bbb", []byte("22")); err != nil {
		t.Fatal(err)
	}
	idx := filepath.Join(dir, resultsDir, indexName)
	if err := os.WriteFile(idx, []byte("{definitely not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, Options{Logf: quiet})
	if err != nil {
		t.Fatalf("reopen with corrupt index: %v", err)
	}
	if n := s2.ResultCount(); n != 2 {
		t.Errorf("ResultCount after rebuild = %d, want 2", n)
	}
	if _, ok := s2.GetResult("bbb"); !ok {
		t.Error("bbb lost after index rebuild")
	}
}

func TestIndexReconciliation(t *testing.T) {
	s, dir := openTemp(t, Options{})
	if err := s.PutResult("aaa", []byte("1")); err != nil {
		t.Fatal(err)
	}
	// Vanish aaa behind the index's back; drop an unindexed file in.
	if err := os.Remove(filepath.Join(dir, resultsDir, "aaa"+jsonExt)); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, resultsDir, "orphan"+jsonExt), []byte("33"), 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, Options{Logf: quiet})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s2.GetResult("aaa"); ok {
		t.Error("vanished entry still served")
	}
	if _, ok := s2.GetResult("orphan"); !ok {
		t.Error("unindexed file not adopted on open")
	}
}

// TestResultsDirHoldsOnlyResults: the results directory is the one
// record of what is stored, so after any sequence of puts (some of them
// evicting), reads, overwrites and deletes it holds exactly the stored
// results' files, and a reopen finds exactly those results.
func TestResultsDirHoldsOnlyResults(t *testing.T) {
	s, dir := openTemp(t, Options{MaxBytes: 100})
	check := func(step string) {
		t.Helper()
		des, err := os.ReadDir(filepath.Join(dir, resultsDir))
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, de := range des {
			names = append(names, de.Name())
		}
		var want []string
		for key := range s.entries {
			want = append(want, key+jsonExt)
		}
		sort.Strings(want)
		if !reflect.DeepEqual(names, want) {
			t.Fatalf("after %s: results/ holds %v, want the stored results %v", step, names, want)
		}
	}
	payload := []byte(strings.Repeat("x", 30))
	for i, op := range []string{"put aaa", "put bbb", "get aaa", "put ccc", "put ddd", "get ccc", "delete ccc", "put aaa", "get zzz", "delete zzz", "put eee"} {
		verb, key, _ := strings.Cut(op, " ")
		switch verb {
		case "put":
			if err := s.PutResult(key, payload[:10+2*i]); err != nil {
				t.Fatal(err)
			}
		case "get":
			s.GetResult(key)
		case "delete":
			s.DeleteResult(key)
		}
		check(op)
	}
	s2, err := Open(dir, Options{Logf: quiet})
	if err != nil {
		t.Fatal(err)
	}
	if s2.ResultCount() != s.ResultCount() || s2.ResultBytes() != s.ResultBytes() {
		t.Errorf("reopen finds %d results of %d bytes, want %d of %d",
			s2.ResultCount(), s2.ResultBytes(), s.ResultCount(), s.ResultBytes())
	}
}

// TestReadRecencySurvivesReopen: a read refreshes the result's recency on
// disk, so after a reopen the result read last outlives one written after
// it. The store used to record a read only with the next put.
func TestReadRecencySurvivesReopen(t *testing.T) {
	s, dir := openTemp(t, Options{MaxBytes: 100})
	payload := []byte(strings.Repeat("x", 40))
	for _, key := range []string{"aaa", "bbb"} {
		if err := s.PutResult(key, payload); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := s.GetResult("aaa"); !ok {
		t.Fatal("aaa missing")
	}
	s2, err := Open(dir, Options{MaxBytes: 100, Logf: quiet})
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.PutResult("ccc", payload); err != nil {
		t.Fatal(err)
	}
	if _, ok := s2.GetResult("aaa"); !ok {
		t.Error("aaa, read last before the reopen, was evicted")
	}
	if _, ok := s2.GetResult("bbb"); ok {
		t.Error("bbb survived eviction; want it as the LRU victim")
	}
}

func TestInvalidKeysRejected(t *testing.T) {
	s, _ := openTemp(t, Options{})
	for _, k := range []string{"", "../escape", "a/b", "a.b", strings.Repeat("x", 129)} {
		if err := s.PutResult(k, []byte("x")); err == nil {
			t.Errorf("PutResult(%q) succeeded; want error", k)
		}
		if _, ok := s.GetResult(k); ok {
			t.Errorf("GetResult(%q) hit; want miss", k)
		}
		if err := s.PutJob(k, []byte("x")); err == nil {
			t.Errorf("PutJob(%q) succeeded; want error", k)
		}
	}
}

func TestJobCheckpointRoundtrip(t *testing.T) {
	s, dir := openTemp(t, Options{})
	if err := s.PutJob("job1", []byte(`{"v":1}`)); err != nil {
		t.Fatal(err)
	}
	got, ok := s.GetJob("job1")
	if !ok || string(got) != `{"v":1}` {
		t.Fatalf("GetJob = %q, %v", got, ok)
	}
	// Files ListJobs must skip: temp leftovers, invalid key stems,
	// directories.
	jdir := filepath.Join(dir, jobsDir)
	if err := os.WriteFile(filepath.Join(jdir, ".tmp-123.json"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(jdir, "bad key!.json"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(filepath.Join(jdir, "sub.json"), 0o755); err != nil {
		t.Fatal(err)
	}
	listed := s.ListJobs()
	if len(listed) != 1 || string(listed["job1"]) != `{"v":1}` {
		t.Fatalf("ListJobs = %v, want only job1", listed)
	}
	s.DeleteJob("job1")
	if _, ok := s.GetJob("job1"); ok {
		t.Error("job1 survived DeleteJob")
	}
}

func TestDeleteResult(t *testing.T) {
	s, _ := openTemp(t, Options{})
	if err := s.PutResult("aaa", []byte("123")); err != nil {
		t.Fatal(err)
	}
	s.DeleteResult("aaa")
	if _, ok := s.GetResult("aaa"); ok {
		t.Error("aaa survived DeleteResult")
	}
	if n, b := s.ResultCount(), s.ResultBytes(); n != 0 || b != 0 {
		t.Errorf("count=%d bytes=%d after delete, want 0/0", n, b)
	}
}

// TestConcurrentPutGetEviction hammers the LRU with concurrent writers
// and readers and asserts the byte-cap invariant holds at every
// observable instant: with more than one cached entry, the accounted
// total never exceeds MaxBytes — eviction happens inside the same
// critical section as the insert, so no reader can catch the store
// over budget mid-flight. Run under -race via `go test -race`.
func TestConcurrentPutGetEviction(t *testing.T) {
	val := []byte(strings.Repeat("x", 512))
	// Cap fits ~8 entries, far fewer than the writers insert, so
	// eviction churns continuously under contention.
	maxBytes := int64(8 * len(val))
	s, _ := openTemp(t, Options{MaxBytes: maxBytes})

	const writers, perWriter = 8, 40
	stop := make(chan struct{})

	// Observer: polls the accounted total for the whole run, while puts
	// and evictions race underneath it.
	var overBudget atomic.Int64
	var obsWg sync.WaitGroup
	obsWg.Add(1)
	go func() {
		defer obsWg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if got := s.ResultBytes(); got > maxBytes && s.ResultCount() > 1 {
				overBudget.Store(got)
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				key := fmt.Sprintf("cc-%02d-%03d", w, i)
				if err := s.PutResult(key, val); err != nil {
					t.Errorf("PutResult(%s): %v", key, err)
					return
				}
				// Readers touch recent keys, racing eviction's LRU scan.
				if data, ok := s.GetResult(key); ok && len(data) != len(val) {
					t.Errorf("GetResult(%s) = %d bytes, want %d", key, len(data), len(val))
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	obsWg.Wait()

	if got := overBudget.Load(); got != 0 {
		t.Errorf("observer caught the store %d bytes over its %d-byte cap mid-flight", got, maxBytes)
	}
	if got := s.ResultBytes(); got > maxBytes {
		t.Errorf("final accounted bytes %d exceed cap %d", got, maxBytes)
	}
	if n := s.ResultCount(); n < 1 {
		t.Errorf("eviction emptied the store entirely (%d entries)", n)
	}
}

func TestETagIsStrongValidator(t *testing.T) {
	keyA, err := Key(map[string]int{"trials": 1000})
	if err != nil {
		t.Fatal(err)
	}
	keyB, err := Key(map[string]int{"trials": 2000})
	if err != nil {
		t.Fatal(err)
	}
	a, b := ETag(keyA), ETag(keyB)
	if a == b {
		t.Fatalf("distinct keys share ETag %s", a)
	}
	// Strong validators are quoted opaque strings (RFC 9110 §8.8.3) and
	// deterministic: same content key, same tag.
	if !strings.HasPrefix(a, `"`) || !strings.HasSuffix(a, `"`) {
		t.Fatalf("ETag %q is not quoted", a)
	}
	if again := ETag(keyA); again != a {
		t.Fatalf("ETag not deterministic: %s vs %s", a, again)
	}
}
