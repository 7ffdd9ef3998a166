package store

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzOpenCorrupt drops arbitrary bytes where an older version kept its
// result index, as a result, and as a job checkpoint, then exercises the
// full read/write surface. The store's contract under corruption is
// "warn and treat as a miss" — any panic or failed Open is a bug:
// corrupted checkpoints, results and stale index files must never take
// the process down.
func FuzzOpenCorrupt(f *testing.F) {
	f.Add([]byte(`{"seq":3,"entries":[{"key":"aaa","size":1,"seq":3}]}`))
	f.Add([]byte(`{"seq":`))
	f.Add([]byte(``))
	f.Add([]byte(`null`))
	f.Add([]byte(`{"seq":-9223372036854775808,"entries":[{"key":"../x","size":-5,"seq":0}]}`))
	f.Add([]byte("\x00\xff\xfe garbage"))
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		for _, d := range []string{filepath.Join(dir, resultsDir), filepath.Join(dir, jobsDir)} {
			if err := os.MkdirAll(d, 0o755); err != nil {
				t.Fatal(err)
			}
		}
		// The same bytes land as a stale index, a result artifact, and a
		// job checkpoint.
		for _, p := range []string{
			filepath.Join(dir, resultsDir, indexName),
			filepath.Join(dir, resultsDir, "aaa.json"),
			filepath.Join(dir, jobsDir, "ckpt.json"),
		} {
			if err := os.WriteFile(p, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		s, err := Open(dir, Options{Logf: quiet})
		if err != nil {
			t.Fatalf("Open must tolerate corruption, got %v", err)
		}
		s.GetResult("aaa")
		s.ListJobs()
		s.GetJob("ckpt")
		if err := s.PutResult("bbb", []byte(`{"fresh":true}`)); err != nil {
			t.Fatalf("PutResult after corrupted open: %v", err)
		}
		if got, ok := s.GetResult("bbb"); !ok || string(got) != `{"fresh":true}` {
			t.Fatalf("fresh write unreadable after corrupted open: %q, %v", got, ok)
		}
		// Reopen once more: the rescan must survive the stale index and
		// the fresh write.
		if _, err := Open(dir, Options{Logf: quiet}); err != nil {
			t.Fatalf("second Open: %v", err)
		}
	})
}
