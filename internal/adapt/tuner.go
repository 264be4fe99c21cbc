package adapt

import (
	"fmt"
	"os"
	"sync"
)

// Candidate is one tuning the tuner may commit. The candidate at index
// 0 must be the static plan (zero Tuning); challengers each describe
// which knob they move so the settled plan can explain itself.
type Candidate struct {
	// Name labels the candidate in logs ("max_batch=16").
	Name   string
	Tuning Tuning
	// Knob, Unit, Static and Learned pre-fill the Decision this
	// candidate produces if committed.
	Knob    string
	Unit    string
	Static  int64
	Learned int64
}

// Config tunes the tuner itself.
type Config struct {
	// Explore is how many trials each candidate gets per evaluation
	// round; the round metric is the minimum (robust to shared-host
	// noise). Default 3.
	Explore int
	// Rounds is how many consecutive rounds the same challenger must
	// win before the tuner commits it — the hysteresis. Default 2.
	Rounds int
	// Win is the fractional improvement over the static plan a
	// challenger must sustain (default 0.10: plans only switch on a
	// sustained >10% measured win).
	Win float64
}

func (c Config) withDefaults() Config {
	if c.Explore <= 0 {
		c.Explore = 3
	}
	if c.Rounds <= 0 {
		c.Rounds = 2
	}
	if c.Win <= 0 {
		c.Win = 0.10
	}
	return c
}

// Tuner runs the measured re-planning loop for one cached program: hand
// out candidates round-robin with Next, report each trial's measured
// nanoseconds with Report, and after enough sustained evidence the
// tuner settles on a plan (Plan). All methods are safe for
// concurrent use; the hot path after settling is one mutex-guarded
// field read.
type Tuner struct {
	mu    sync.Mutex
	cfg   Config
	key   Key
	cands []Candidate

	trials  []int   // trials completed this round, per candidate
	roundNs []int64 // min ns this round, per candidate
	bestNs  []int64 // min ns across all rounds, per candidate
	next    int     // round-robin cursor
	round   int     // completed evaluation rounds
	leader  int     // candidate winning the current streak
	streak  int     // consecutive rounds the leader has won
	settled bool
	plan    Plan
}

// NewTuner creates an exploring tuner over the candidate set. cands[0]
// must be the static plan; NewTuner prepends one if the caller did not.
func NewTuner(key Key, cfg Config, cands []Candidate) *Tuner {
	if len(cands) == 0 || !cands[0].Tuning.IsZero() {
		cands = append([]Candidate{{Name: "static"}}, cands...)
	}
	t := &Tuner{cfg: cfg.withDefaults(), key: key, cands: cands}
	t.resetRound()
	t.bestNs = make([]int64, len(cands))
	return t
}

// Adopt settles the tuner on a previously learned plan immediately — the
// warm-restart path: no exploration runs, Next always returns the
// adopted tuning.
func (t *Tuner) Adopt(p Plan) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.settled = true
	t.plan = p
}

func (t *Tuner) resetRound() {
	t.trials = make([]int, len(t.cands))
	t.roundNs = make([]int64, len(t.cands))
}

// Next returns the candidate to measure next: its index (to pass back
// to Report) and its tuning. Once settled it always returns the
// committed plan's tuning with done=true, and trials need no Report.
func (t *Tuner) Next() (idx int, tuning Tuning, done bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.settled {
		return -1, t.plan.Tuning, true
	}
	// Round-robin interleaves candidates so drift in host load hits all
	// of them, not whichever happened to run last.
	for i := 0; i < len(t.cands); i++ {
		c := (t.next + i) % len(t.cands)
		if t.trials[c] < t.cfg.Explore {
			t.next = (c + 1) % len(t.cands)
			return c, t.cands[c].Tuning, false
		}
	}
	// All full (concurrent callers mid-round): hand out static.
	return 0, t.cands[0].Tuning, false
}

// Report records one measured trial of candidate idx. When the round
// completes (every candidate measured Explore times) the tuner
// evaluates it and, with enough sustained evidence, settles.
func (t *Tuner) Report(idx int, ns int64) {
	if ns <= 0 || idx < 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.settled || idx >= len(t.cands) {
		return
	}
	if t.trials[idx] == 0 || ns < t.roundNs[idx] {
		t.roundNs[idx] = ns
	}
	t.trials[idx]++
	for _, n := range t.trials {
		if n < t.cfg.Explore {
			return
		}
	}
	t.evaluateRound()
}

// evaluateRound closes the current round: pick the round winner, update
// the streak, settle if the hysteresis is satisfied. Called with t.mu
// held.
func (t *Tuner) evaluateRound() {
	t.round++
	winner := 0
	for i, ns := range t.roundNs {
		if ns > 0 && (t.roundNs[winner] <= 0 || ns < t.roundNs[winner]) {
			winner = i
		}
		if t.bestNs[i] == 0 || (ns > 0 && ns < t.bestNs[i]) {
			t.bestNs[i] = ns
		}
	}
	staticNs := t.roundNs[0]
	// A challenger only counts as winning when it clears the sustained
	// win threshold against the static plan this round.
	if winner != 0 && staticNs > 0 &&
		float64(t.roundNs[winner]) > float64(staticNs)*(1-t.cfg.Win) {
		winner = 0
	}
	// Sticky leader: when two challengers both clear the static bar they
	// can trade round wins on measurement noise forever, resetting the
	// streak each time. A new challenger dethrones the current one only
	// by beating it decisively (half the static-win margin); a
	// within-noise swap keeps the streak with the incumbent.
	if t.leader != 0 && winner != 0 && winner != t.leader {
		leaderNs := t.roundNs[t.leader]
		if leaderNs > 0 && float64(t.roundNs[winner]) > float64(leaderNs)*(1-t.cfg.Win/2) {
			winner = t.leader
		}
	}
	if os.Getenv("ADAPT_DEBUG") != "" {
		fmt.Fprintf(os.Stderr, "adapt: round %d roundNs=%v winner=%s leader=%s streak=%d\n",
			t.round, t.roundNs, t.cands[winner].Name, t.cands[t.leader].Name, t.streak)
	}
	if winner == t.leader {
		t.streak++
	} else {
		t.leader, t.streak = winner, 1
	}
	t.resetRound()
	if t.streak >= t.cfg.Rounds {
		t.settle(t.leader)
	}
}

// settle commits candidate idx as the plan. Called with t.mu held.
func (t *Tuner) settle(idx int) {
	t.settled = true
	win := t.cands[idx]
	p := Plan{
		Version: planVersion,
		Key:     t.key,
		Gen:     t.round,
		Tuning:  win.Tuning,
		BaseNs:  t.bestNs[0],
		BestNs:  t.bestNs[idx],
	}
	winPct := func(i int) float64 {
		if t.bestNs[0] <= 0 || t.bestNs[i] <= 0 {
			return 0
		}
		return 100 * (1 - float64(t.bestNs[i])/float64(t.bestNs[0]))
	}
	if idx == 0 {
		// The static model survived its measured challenge: record one
		// validation decision per distinct knob, with the best
		// challenger's (insufficient) margin as evidence.
		seen := map[string]int{}
		for i := 1; i < len(t.cands); i++ {
			c := t.cands[i]
			k := c.Unit + "\x00" + c.Knob
			if j, ok := seen[k]; !ok || winPct(i) > winPct(j) {
				seen[k] = i
			}
		}
		for _, i := range seen {
			c := t.cands[i]
			p.Decisions = append(p.Decisions, Decision{
				Unit: c.Unit, Knob: c.Knob, Static: c.Static, Learned: c.Static,
				WinPct: winPct(i),
				Why: fmt.Sprintf("validated: best challenger (%s) measured %+.1f%%, below the %.0f%% sustained-win bar",
					c.Name, winPct(i), t.cfg.Win*100),
			})
		}
	} else {
		p.Decisions = append(p.Decisions, Decision{
			Unit: win.Unit, Knob: win.Knob, Static: win.Static, Learned: win.Learned,
			WinPct: winPct(idx),
			Why: fmt.Sprintf("measured %.1f%% faster than static over %d consecutive rounds (min of %d trials each)",
				winPct(idx), t.streak, t.cfg.Explore),
		})
	}
	t.plan = p
}

// Plan returns the committed plan; ok is false while still exploring.
func (t *Tuner) Plan() (Plan, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.plan, t.settled
}

// Rounds reports completed evaluation rounds (diagnostics).
func (t *Tuner) Rounds() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.round
}
