package grid

import (
	"math/rand"
	"os"
	"strings"
	"testing"
	"time"

	"everyware/internal/simgrid"
)

func TestProfilesCoverAllInfras(t *testing.T) {
	profiles := SC98Profiles()
	if len(profiles) != 7 {
		t.Fatalf("profiles = %d, want 7", len(profiles))
	}
	seen := map[Infra]bool{}
	for _, p := range profiles {
		seen[p.Name] = true
		if p.Hosts <= 0 || p.OpsPerSec <= 0 || p.CycleTime <= 0 {
			t.Fatalf("profile %s has zero fields: %+v", p.Name, p)
		}
	}
	for _, in := range Infras() {
		if !seen[in] {
			t.Fatalf("missing infrastructure %s", in)
		}
	}
	if _, ok := ProfileFor(InfraCondor); !ok {
		t.Fatal("ProfileFor(condor) missing")
	}
	if _, ok := ProfileFor("vms"); ok {
		t.Fatal("ProfileFor must reject unknown infra")
	}
}

func TestAggregateCapacityMatchesPaperScale(t *testing.T) {
	// The paper's peak sustained rate was 2.39e9 ops/s; the calibrated
	// testbed's theoretical capacity must be in that neighbourhood.
	total := 0.0
	for _, p := range SC98Profiles() {
		per := p.OpsPerSec
		if p.Name == InfraJava {
			per = p.JITFraction*JavaJITOpsPerSec + (1-p.JITFraction)*JavaInterpretedOpsPerSec
		}
		total += float64(p.Hosts) * per
	}
	if total < 2.0e9 || total > 3.0e9 {
		t.Fatalf("aggregate capacity %.3g outside [2e9, 3e9]", total)
	}
}

func TestNetLoadJudgingSpike(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	nl := NewNetLoad(NetLoadConfig{
		Start:          SC98Start,
		Duration:       SC98Duration,
		SCINetEpisodes: 1,
		JudgingAt:      JudgingAt,
	}, rng)
	calm := nl.Factor(SC98Start.Add(time.Minute))
	if calm < 1 {
		t.Fatalf("factor below 1: %v", calm)
	}
	spike := nl.Factor(SC98Start.Add(JudgingAt + time.Minute))
	if spike < 4 {
		t.Fatalf("judging spike factor = %v, want >= 4", spike)
	}
	later := nl.Factor(SC98Start.Add(JudgingAt + 15*time.Minute))
	if later >= spike {
		t.Fatalf("spike must decay: %v then %v", spike, later)
	}
}

func TestNetLoadNoJudging(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	nl := NewNetLoad(NetLoadConfig{
		Start: SC98Start, Duration: SC98Duration,
		SCINetEpisodes: 1, JudgingAt: -1,
	}, rng)
	if f := nl.Factor(SC98Start.Add(JudgingAt + time.Minute)); f > 4.5 {
		t.Fatalf("judging disabled but factor = %v", f)
	}
}

// shortScenario runs a reduced window for fast tests.
func shortScenario(t *testing.T, cfg ScenarioConfig) *Result {
	t.Helper()
	if cfg.Duration == 0 {
		cfg.Duration = time.Hour
	}
	if cfg.Seed == 0 {
		cfg.Seed = 98
	}
	cfg.AdaptiveTimeouts = true
	return RunSC98(cfg)
}

func TestScenarioProducesAllSeries(t *testing.T) {
	res := shortScenario(t, ScenarioConfig{})
	if res.Total.Buckets() == 0 {
		t.Fatal("no total buckets")
	}
	for _, in := range Infras() {
		if res.Perf.Series(string(in)).Buckets() == 0 {
			t.Fatalf("no perf buckets for %s", in)
		}
		hosts := res.Hosts.Series(string(in)).Means()
		nonzero := false
		for _, h := range hosts {
			if h > 0 {
				nonzero = true
			}
		}
		if !nonzero && in != InfraJava { // Java applets may be all-down in a short window
			t.Fatalf("no live hosts recorded for %s", in)
		}
	}
	if res.ReportAttempts == 0 {
		t.Fatal("no report attempts")
	}
	if res.SchedulerReports == 0 {
		t.Fatal("scheduler policy never exercised")
	}
}

// TestScenarioTelemetryVirtualTime: the scheduler's metrics registry
// follows the simulation engine's clock, so its snapshot must report the
// replayed hour as uptime (not the real milliseconds the replay took) and
// must count exactly the reports the policy handled.
func TestScenarioTelemetryVirtualTime(t *testing.T) {
	res := shortScenario(t, ScenarioConfig{})
	tel := res.Telemetry
	if got := tel.Value("sched.reports"); got != res.SchedulerReports {
		t.Errorf("telemetry sched.reports = %d, want %d", got, res.SchedulerReports)
	}
	up := time.Duration(tel.UptimeNanos)
	if up < 55*time.Minute || up > 65*time.Minute {
		t.Errorf("virtual uptime = %s, want ~1h (the simulated window)", up)
	}
	sm, ok := tel.Find("sched.decision.ok")
	if !ok || sm.Hist == nil || sm.Hist.Count == 0 {
		t.Fatal("no sched.decision.ok span histogram recorded")
	}
}

func TestScenarioDeterministicForSeed(t *testing.T) {
	a := shortScenario(t, ScenarioConfig{Seed: 7})
	b := shortScenario(t, ScenarioConfig{Seed: 7})
	if a.Total.Buckets() != b.Total.Buckets() {
		t.Fatal("bucket counts differ")
	}
	for i := 0; i < a.Total.Buckets(); i++ {
		if a.Total.Sum(i) != b.Total.Sum(i) {
			t.Fatalf("bucket %d differs: %v vs %v", i, a.Total.Sum(i), b.Total.Sum(i))
		}
	}
	c := shortScenario(t, ScenarioConfig{Seed: 8})
	same := true
	for i := 0; i < a.Total.Buckets() && i < c.Total.Buckets(); i++ {
		if a.Total.Sum(i) != c.Total.Sum(i) {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical series")
	}
}

func TestScenarioSustainedRateInPaperRange(t *testing.T) {
	// Over a calm early window the sustained rate should sit in the
	// 1.5e9..2.6e9 band (the figure's pre-judging plateau).
	res := shortScenario(t, ScenarioConfig{Duration: 2 * time.Hour})
	// Skip the first bucket (clients stagger in).
	for i := 1; i < res.Total.Buckets()-1; i++ {
		r := res.Total.Rate(i)
		if r < 1.0e9 || r > 3.0e9 {
			t.Fatalf("bucket %d rate %.3g outside plausible band", i, r)
		}
	}
}

func TestFullScenarioReproducesFigure2Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("full 12h replay skipped in short mode")
	}
	res := RunSC98(ScenarioConfig{Seed: 1998, AdaptiveTimeouts: true})

	peak, peakAt := res.PeakRate()
	if peak < 2.0e9 || peak > 2.9e9 {
		t.Fatalf("peak %.3g outside [2.0e9, 2.9e9] (paper: 2.39e9)", peak)
	}
	// The peak must land inside the pre-competition test window.
	lo := res.Start.Add(TestWindowAt - 10*time.Minute)
	hi := res.Start.Add(TestWindowAt + TestWindowLen + 10*time.Minute)
	if peakAt.Before(lo) || peakAt.After(hi) {
		t.Fatalf("peak at %v, outside the test window", peakAt)
	}
	// Judging collapse: the minimum within [judging, judging+15m) must be
	// well below the peak (paper: 1.1e9 vs 2.39e9).
	trough := res.MinRateBetween(JudgingAt, JudgingAt+15*time.Minute)
	if trough > 0.65*peak {
		t.Fatalf("judging trough %.3g not a collapse (peak %.3g)", trough, peak)
	}
	// Recovery: by ~11:10-11:15 the rate must climb back toward 2e9.
	rec := res.RateAt(JudgingAt + 12*time.Minute)
	if rec < trough {
		t.Fatalf("no recovery: %.3g then %.3g", trough, rec)
	}
	if rec < 0.6*peak {
		t.Fatalf("recovery %.3g too weak vs peak %.3g", rec, peak)
	}
}

func TestStaticTimeoutsSufferMoreSpuriousTimeouts(t *testing.T) {
	if testing.Short() {
		t.Skip("replay comparison skipped in short mode")
	}
	dyn := RunSC98(ScenarioConfig{Seed: 3, Duration: 3 * time.Hour, AdaptiveTimeouts: true})
	stat := RunSC98(ScenarioConfig{Seed: 3, Duration: 3 * time.Hour, AdaptiveTimeouts: false})
	if stat.SpuriousTimeouts <= dyn.SpuriousTimeouts {
		t.Fatalf("static timeouts (%d spurious) should exceed dynamic (%d)",
			stat.SpuriousTimeouts, dyn.SpuriousTimeouts)
	}
	if stat.LostOps <= dyn.LostOps {
		t.Fatalf("static lost ops %.3g should exceed dynamic %.3g", stat.LostOps, dyn.LostOps)
	}
}

func TestCondorHostCountSwings(t *testing.T) {
	if testing.Short() {
		t.Skip("skipped in short mode")
	}
	res := RunSC98(ScenarioConfig{Seed: 5, Duration: 6 * time.Hour, AdaptiveTimeouts: true})
	means := res.Hosts.Series(string(InfraCondor)).Means()
	lo, hi := means[0], means[0]
	for _, v := range means {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if hi-lo < 10 {
		t.Fatalf("Condor host count barely moved: [%v, %v]; reclamation churn missing", lo, hi)
	}
}

func TestCondorPlacementInPoolIsWorse(t *testing.T) {
	in := RunCondorPlacement(CondorPlacementConfig{Seed: 11, SchedulerInPool: true})
	out := RunCondorPlacement(CondorPlacementConfig{Seed: 11, SchedulerInPool: false})
	if in.SchedulerDeaths == 0 {
		t.Fatal("in-pool scheduler never reclaimed")
	}
	if out.SchedulerDeaths != 0 || out.LocateEvents != 0 {
		t.Fatalf("external scheduler should be stable: %+v", out)
	}
	if in.UsefulOps >= out.UsefulOps {
		t.Fatalf("in-pool placement (%.3g ops) should underperform external (%.3g ops)",
			in.UsefulOps, out.UsefulOps)
	}
	if in.WastedSeconds <= 0 {
		t.Fatal("in-pool placement recorded no locate overhead")
	}
}

func TestCondorPlacementDeterministic(t *testing.T) {
	a := RunCondorPlacement(CondorPlacementConfig{Seed: 4, SchedulerInPool: true})
	b := RunCondorPlacement(CondorPlacementConfig{Seed: 4, SchedulerInPool: true})
	if a.UsefulOps != b.UsefulOps || a.LocateEvents != b.LocateEvents {
		t.Fatal("placement sim not deterministic")
	}
}

func TestExportFigureData(t *testing.T) {
	res := shortScenario(t, ScenarioConfig{})
	dir := t.TempDir() + "/figures"
	if err := res.ExportFigureData(dir); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"fig2_total_rate.csv", "fig3a_rate_by_infra.csv", "fig3b_hosts_by_infra.csv", "summary.csv"} {
		raw, err := os.ReadFile(dir + "/" + name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
		if len(lines) < 2 {
			t.Fatalf("%s has no data rows", name)
		}
		if !strings.Contains(lines[0], ",") {
			t.Fatalf("%s header malformed: %q", name, lines[0])
		}
	}
	// Summary must cover the total plus both series per infrastructure.
	raw, _ := os.ReadFile(dir + "/summary.csv")
	rows := strings.Count(string(raw), "\n")
	if rows < 1+2*len(Infras()) {
		t.Fatalf("summary rows = %d", rows)
	}
}

func TestUpFractionSteadyState(t *testing.T) {
	if f := upFraction(Profile{}); f != 1 {
		t.Fatalf("dedicated profile up fraction = %v", f)
	}
	p := Profile{MeanUp: 40 * time.Minute, MeanDown: 20 * time.Minute}
	if f := upFraction(p); f < 0.66 || f > 0.67 {
		t.Fatalf("up fraction = %v, want 2/3", f)
	}
}

func TestJavaHostMixtureMatchesJITFraction(t *testing.T) {
	// Build the java pool many times over different seeds and verify the
	// JIT/interpreted speed mixture approximates the configured fraction.
	prof, _ := ProfileFor(InfraJava)
	jit, interp := 0, 0
	// Check the construction path's mixture: count speeds over many
	// derived host seeds.
	for i := 0; i < 400; i++ {
		r := rand.New(rand.NewSource(simgrid.SubSeed(7, i)))
		speed := prof.OpsPerSec
		if r.Float64() >= prof.JITFraction {
			speed = JavaInterpretedOpsPerSec
		}
		if speed == JavaInterpretedOpsPerSec {
			interp++
		} else {
			jit++
		}
	}
	frac := float64(jit) / float64(jit+interp)
	if frac < prof.JITFraction-0.1 || frac > prof.JITFraction+0.1 {
		t.Fatalf("jit fraction = %v, configured %v", frac, prof.JITFraction)
	}
}

func TestClaimedFractionTimeline(t *testing.T) {
	s := &scenario{
		cfg:     ScenarioConfig{},
		judging: SC98Start.Add(JudgingAt),
	}
	p := Profile{ClaimFraction: 0.5}
	if f := s.claimedFraction(p, SC98Start.Add(JudgingAt-time.Minute)); f != 0 {
		t.Fatalf("pre-judging claim = %v", f)
	}
	if f := s.claimedFraction(p, SC98Start.Add(JudgingAt+time.Minute)); f != 0.5 {
		t.Fatalf("collapse claim = %v", f)
	}
	mid := s.claimedFraction(p, SC98Start.Add(JudgingAt+9*time.Minute))
	if mid >= 0.5 || mid <= 0 {
		t.Fatalf("reorganization claim = %v", mid)
	}
	late := s.claimedFraction(p, SC98Start.Add(JudgingAt+30*time.Minute))
	if late >= mid {
		t.Fatalf("late claim %v should be below mid %v", late, mid)
	}
	s.cfg.DisableJudging = true
	if f := s.claimedFraction(p, SC98Start.Add(JudgingAt+time.Minute)); f != 0 {
		t.Fatalf("disabled judging claim = %v", f)
	}
}

func TestHostAvailabilityAdvance(t *testing.T) {
	h := &host{
		profile:    Profile{MeanUp: time.Hour, MeanDown: 30 * time.Minute},
		rng:        rand.New(rand.NewSource(1)),
		up:         true,
		nextToggle: SC98Start.Add(10 * time.Minute),
	}
	h.advance(SC98Start) // before the toggle: unchanged
	if !h.up {
		t.Fatal("host flipped early")
	}
	h.advance(SC98Start.Add(11 * time.Minute))
	if h.up {
		t.Fatal("host did not go down at its toggle time")
	}
	if !h.nextToggle.After(SC98Start.Add(11 * time.Minute)) {
		t.Fatal("next toggle not rescheduled forward")
	}
	// Dedicated hosts are always up.
	d := &host{profile: Profile{MeanUp: 0}}
	d.advance(SC98Start.Add(100 * time.Hour))
	if !d.up {
		t.Fatal("dedicated host must always be up")
	}
}
