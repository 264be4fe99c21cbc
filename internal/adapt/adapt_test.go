package adapt

import (
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
)

func testKey() Key {
	return Key{Model: "sage-h16", GraphFP: 0xabcdef0123456789, InDim: 16, Procs: 4, Host: "test/amd64/h/c4"}
}

func batchCands() []Candidate {
	return []Candidate{
		{Name: "static"},
		{Name: "max_batch=4",
			Tuning: Tuning{MaxBatch: 4},
			Knob:   "max_batch", Static: 8, Learned: 4},
		{Name: "max_batch=16",
			Tuning: Tuning{MaxBatch: 16},
			Knob:   "max_batch", Static: 8, Learned: 16},
	}
}

// drive feeds the tuner deterministic trial times per candidate until it
// settles or maxTrials elapse.
func drive(t *testing.T, tn *Tuner, ns func(idx, trial int) int64, maxTrials int) {
	t.Helper()
	counts := map[int]int{}
	for i := 0; i < maxTrials; i++ {
		idx, _, done := tn.Next()
		if done {
			return
		}
		tn.Report(idx, ns(idx, counts[idx]))
		counts[idx]++
	}
	t.Fatalf("tuner did not settle within %d trials", maxTrials)
}

func TestTunerCommitsSustainedWin(t *testing.T) {
	tn := NewTuner(testKey(), Config{Explore: 3, Rounds: 2, Win: 0.10}, batchCands())
	// Candidate 1 is consistently 20% faster than static; candidate 2 is
	// 5% slower. The tuner must commit candidate 1 after exactly two
	// evaluation rounds (hysteresis), no sooner.
	drive(t, tn, func(idx, trial int) int64 {
		switch idx {
		case 1:
			return 80_000_000
		case 2:
			return 105_000_000
		default:
			return 100_000_000
		}
	}, 100)
	p, ok := tn.Plan()
	if !ok {
		t.Fatal("tuner did not settle")
	}
	if p.Gen != 2 {
		t.Fatalf("settled at gen %d, want 2 (two-round hysteresis)", p.Gen)
	}
	if p.Tuning.MaxBatch != 4 {
		t.Fatalf("committed tuning %+v, want max_batch=4", p.Tuning)
	}
	if !p.Learned() {
		t.Fatal("plan should report Learned")
	}
	if len(p.Decisions) != 1 || p.Decisions[0].Learned != 4 {
		t.Fatalf("want one diverged decision, got %+v", p.Decisions)
	}
	if got := p.WinPct(); got < 19 || got > 21 {
		t.Fatalf("WinPct = %.1f, want ~20", got)
	}
}

func TestTunerValidatesStaticUnderThreshold(t *testing.T) {
	tn := NewTuner(testKey(), Config{Explore: 2, Rounds: 2, Win: 0.10}, batchCands())
	// Best challenger is only 5% faster — below the 10% bar, so the
	// static plan must win and the decisions must say "validated".
	drive(t, tn, func(idx, trial int) int64 {
		switch idx {
		case 1:
			return 95_000_000
		case 2:
			return 99_000_000
		default:
			return 100_000_000
		}
	}, 100)
	p, ok := tn.Plan()
	if !ok {
		t.Fatal("tuner did not settle")
	}
	if p.Learned() {
		t.Fatalf("static plan should have been validated, got tuning %+v", p.Tuning)
	}
	if len(p.Decisions) != 1 {
		t.Fatalf("want one validation decision per knob, got %+v", p.Decisions)
	}
	d := p.Decisions[0]
	if d.Static != d.Learned || d.Knob != "max_batch" {
		t.Fatalf("unexpected decision %+v", d)
	}
	if d.WinPct < 4 || d.WinPct > 6 {
		t.Fatalf("validation decision should carry the best challenger margin ~5%%, got %.1f", d.WinPct)
	}
}

func TestTunerHysteresisRejectsOneOffWin(t *testing.T) {
	tn := NewTuner(testKey(), Config{Explore: 1, Rounds: 2, Win: 0.10}, batchCands())
	// Candidate 1 wins round 1 by 30% (a noise spike), then loses every
	// later round. The streak must reset and the static plan settle.
	round := 0
	drive(t, tn, func(idx, trial int) int64 {
		if idx == 0 {
			round = trial // Explore=1 → trial count == round index
		}
		if idx == 1 && round == 0 {
			return 70_000_000
		}
		if idx == 1 {
			return 120_000_000
		}
		if idx == 2 {
			return 130_000_000
		}
		return 100_000_000
	}, 100)
	p, _ := tn.Plan()
	if p.Learned() {
		t.Fatalf("one-off win must not commit; got tuning %+v at gen %d", p.Tuning, p.Gen)
	}
	if p.Gen < 3 {
		t.Fatalf("streak should have reset after the spike; settled at gen %d", p.Gen)
	}
}

func TestTunerAdoptSkipsExploration(t *testing.T) {
	tn := NewTuner(testKey(), Config{}, batchCands())
	learned := Plan{Version: planVersion, Key: testKey(), Gen: 3,
		Tuning: Tuning{MaxBatch: 4}, BaseNs: 100, BestNs: 80}
	tn.Adopt(learned)
	if _, ok := tn.Plan(); !ok {
		t.Fatal("adopted tuner must be settled")
	}
	idx, tuning, done := tn.Next()
	if !done || idx != -1 {
		t.Fatalf("Next after Adopt = (%d, done=%v), want settled", idx, done)
	}
	if tuning.MaxBatch != 4 {
		t.Fatalf("adopted tuning not returned: %+v", tuning)
	}
}

func TestStoreRoundTripAndCorruptFallback(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "plans.json")
	s := NewStore(path)
	key := testKey()

	if _, ok, err := s.Load(key); ok || err != nil {
		t.Fatalf("empty store Load = ok=%v err=%v, want miss with no error", ok, err)
	}

	p := Plan{Version: planVersion, Key: key, Gen: 2,
		Tuning:    Tuning{MaxBatch: 4},
		Decisions: []Decision{{Knob: "max_batch", Static: 8, Learned: 4, WinPct: 16.5, Why: "measured"}},
		BaseNs:    661_000_000, BestNs: 552_000_000,
	}
	if err := s.Save(p); err != nil {
		t.Fatalf("Save: %v", err)
	}
	got, ok, err := s.Load(key)
	if !ok || err != nil {
		t.Fatalf("Load after Save = ok=%v err=%v", ok, err)
	}
	if got.Gen != 2 || got.Tuning.MaxBatch != 4 || len(got.Decisions) != 1 {
		t.Fatalf("round-trip mangled plan: %+v", got)
	}

	// A second key must coexist in the same file.
	key2 := key
	key2.Procs = 1
	if err := s.Save(Plan{Version: planVersion, Key: key2, Gen: 1}); err != nil {
		t.Fatalf("Save second key: %v", err)
	}
	if _, ok, _ := s.Load(key); !ok {
		t.Fatal("first plan lost after saving a second key")
	}

	// Corrupt the file: Load must fall back to a miss with a diagnostic,
	// never an adopted garbage plan; Save must recover the file.
	if err := os.WriteFile(path, []byte("{torn write"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, ok, err = s.Load(key)
	if ok {
		t.Fatalf("corrupt file yielded a plan: %+v", got)
	}
	if err == nil {
		t.Fatal("corrupt file should surface a diagnostic error")
	}
	if err := s.Save(p); err != nil {
		t.Fatalf("Save over corrupt file: %v", err)
	}
	if _, ok, err := s.Load(key); !ok || err != nil {
		t.Fatalf("store did not recover from corruption: ok=%v err=%v", ok, err)
	}

	// Wrong-version file: same graceful miss.
	if err := os.WriteFile(path, []byte(`{"version":999,"plans":{}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := s.Load(key); ok {
		t.Fatal("future-version file must not yield plans")
	}
}

func TestStoreDisabled(t *testing.T) {
	var s *Store
	if _, ok, err := s.Load(testKey()); ok || err != nil {
		t.Fatal("nil store must be a silent miss")
	}
	if err := s.Save(Plan{Key: testKey()}); err != nil {
		t.Fatal("nil store Save must be a no-op")
	}
	s = NewStore("")
	if _, ok, err := s.Load(testKey()); ok || err != nil {
		t.Fatal("pathless store must be a silent miss")
	}
}

// TestStoreLoadsPlanFileFromBeforePR17 loads a plan file written by the
// store as it was before the kernel and pipeline decision kinds were
// removed (testdata generated at 8c6293b: "units", "prefetch",
// "sample_workers" in the tuning, "profile" on the plan). The max_batch
// decision must be adopted and the removed keys dropped on the next save.
func TestStoreLoadsPlanFileFromBeforePR17(t *testing.T) {
	old, err := os.ReadFile(filepath.Join("testdata", "plans_before_pr17.json"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "plans.json")
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}
	key := testKey()
	key.Model = "gcn-h16"
	s := NewStore(path)
	p, ok, diag := s.Load(key)
	if !ok || diag != nil {
		t.Fatalf("Load = ok=%v diag=%v, want the persisted plan", ok, diag)
	}
	if p.Gen != 3 || p.Tuning != (Tuning{MaxBatch: 16}) || !p.Learned() {
		t.Fatalf("adopted plan %+v, want gen 3 with max_batch 16", p)
	}
	if len(p.Decisions) != 1 || p.Decisions[0].Knob != "max_batch" || p.BaseNs != 1000000 {
		t.Fatalf("evidence lost: %+v", p)
	}
	tn := NewTuner(key, Config{}, batchCands())
	tn.Adopt(p)
	if _, tuning, done := tn.Next(); !done || tuning.MaxBatch != 16 {
		t.Fatalf("Next after adopting = (%+v, done=%v)", tuning, done)
	}

	if err := s.Save(p); err != nil {
		t.Fatal(err)
	}
	saved, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, gone := range []string{"units", "prefetch", "sample_workers", "profile"} {
		if strings.Contains(string(saved), `"`+gone+`"`) {
			t.Fatalf("re-saved plan file still carries %q:\n%s", gone, saved)
		}
	}
}

func TestReplannerRunsAndCloses(t *testing.T) {
	before := countGoroutines(t)
	fired := make(chan struct{}, 64)
	r := NewReplanner(time.Millisecond, func() {
		select {
		case fired <- struct{}{}:
		default:
		}
	})
	select {
	case <-fired:
	case <-time.After(2 * time.Second):
		t.Fatal("replanner never fired")
	}
	r.Close()
	r.Close() // idempotent
	waitGoroutines(t, before)
}

func countGoroutines(t *testing.T) int {
	t.Helper()
	return runtime.NumGoroutine()
}

func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= want {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: %d > %d after close", runtime.NumGoroutine(), want)
}
