package opt

import (
	"math"
	"testing"
	"testing/quick"

	"mpss/internal/job"
	"mpss/internal/power"
	"mpss/internal/schedule"
	"mpss/internal/workload"
	"mpss/internal/yds"
)

func mustInstance(t *testing.T, m int, jobs []job.Job) *job.Instance {
	t.Helper()
	in, err := job.NewInstance(m, jobs)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestSingleJobSingleProc(t *testing.T) {
	in := mustInstance(t, 1, []job.Job{{ID: 1, Release: 0, Deadline: 4, Work: 8}})
	res, err := Schedule(in)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Schedule.Verify(in); err != nil {
		t.Fatal(err)
	}
	if len(res.Phases) != 1 || math.Abs(res.Phases[0].Speed-2) > 1e-9 {
		t.Errorf("phases = %+v, want single phase at speed 2", res.Phases)
	}
}

func TestUniformSharing(t *testing.T) {
	// Three equal jobs on two processors over a common window share the
	// capacity at one uniform speed (with the middle job migrating).
	jobs := []job.Job{
		{ID: 1, Release: 0, Deadline: 3, Work: 6},
		{ID: 2, Release: 0, Deadline: 3, Work: 6},
		{ID: 3, Release: 0, Deadline: 3, Work: 6},
	}
	in := mustInstance(t, 2, jobs)
	res, err := Schedule(in)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Schedule.Verify(in); err != nil {
		t.Fatal(err)
	}
	if len(res.Phases) != 1 || math.Abs(res.Phases[0].Speed-3) > 1e-9 {
		t.Fatalf("phases = %+v, want one phase at speed 3", res.Phases)
	}
	p := power.MustAlpha(2)
	if got := res.Schedule.Energy(p); math.Abs(got-54) > 1e-6 {
		t.Errorf("energy = %v, want 54", got)
	}
}

func TestTwoPhaseExample(t *testing.T) {
	// J1 is pinned to [0,1) at speed 10; J2 stretches over [0,10) at 0.5.
	jobs := []job.Job{
		{ID: 1, Release: 0, Deadline: 1, Work: 10},
		{ID: 2, Release: 0, Deadline: 10, Work: 5},
	}
	in := mustInstance(t, 2, jobs)
	res, err := Schedule(in)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Schedule.Verify(in); err != nil {
		t.Fatal(err)
	}
	if len(res.Phases) != 2 {
		t.Fatalf("got %d phases, want 2: %+v", len(res.Phases), res.Phases)
	}
	if math.Abs(res.Phases[0].Speed-10) > 1e-9 || math.Abs(res.Phases[1].Speed-0.5) > 1e-9 {
		t.Errorf("phase speeds = %v, %v; want 10, 0.5", res.Phases[0].Speed, res.Phases[1].Speed)
	}
	p := power.MustAlpha(2)
	if got := res.Schedule.Energy(p); math.Abs(got-102.5) > 1e-6 {
		t.Errorf("energy = %v, want 102.5", got)
	}
}

func TestMigrationBeatsPartition(t *testing.T) {
	// The best non-migratory 2-processor split of three equal jobs costs
	// 60; the migratory optimum costs 54.
	jobs := []job.Job{
		{ID: 1, Release: 0, Deadline: 3, Work: 6},
		{ID: 2, Release: 0, Deadline: 3, Work: 6},
		{ID: 3, Release: 0, Deadline: 3, Work: 6},
	}
	in := mustInstance(t, 2, jobs)
	res, err := Schedule(in)
	if err != nil {
		t.Fatal(err)
	}
	p := power.MustAlpha(2)
	opt := res.Schedule.Energy(p)
	if opt >= 60-1e-6 {
		t.Errorf("migratory optimum %v not below partitioned 60", opt)
	}
	// The middle job must appear on both processors (it migrates).
	procsOf := map[int]map[int]bool{}
	for _, seg := range res.Schedule.Segments {
		if procsOf[seg.JobID] == nil {
			procsOf[seg.JobID] = map[int]bool{}
		}
		procsOf[seg.JobID][seg.Proc] = true
	}
	migrated := false
	for _, procs := range procsOf {
		if len(procs) > 1 {
			migrated = true
		}
	}
	if !migrated {
		t.Error("no job migrated in the wrap-around schedule")
	}
}

func TestMoreProcessorsThanJobs(t *testing.T) {
	jobs := []job.Job{
		{ID: 1, Release: 0, Deadline: 2, Work: 4},
		{ID: 2, Release: 0, Deadline: 4, Work: 2},
	}
	in := mustInstance(t, 8, jobs)
	res, err := Schedule(in)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Schedule.Verify(in); err != nil {
		t.Fatal(err)
	}
	// With plenty of processors every job runs at its own density.
	speeds := res.Schedule.JobSpeeds(1e-9)
	if math.Abs(speeds[1][0]-2) > 1e-9 || math.Abs(speeds[2][0]-0.5) > 1e-9 {
		t.Errorf("job speeds = %v, want density speeds 2 and 0.5", speeds)
	}
}

func TestMatchesYDSOnSingleProcessor(t *testing.T) {
	p := power.MustAlpha(2.5)
	for seed := int64(0); seed < 15; seed++ {
		in, err := workload.Uniform(workload.Spec{N: 10, M: 1, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		res, err := Schedule(in)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := res.Schedule.Verify(in); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		want, err := yds.Energy(in.Jobs, p)
		if err != nil {
			t.Fatal(err)
		}
		got := res.Schedule.Energy(p)
		if math.Abs(got-want) > 1e-6*(1+want) {
			t.Errorf("seed %d: opt(m=1) energy %v, YDS %v", seed, got, want)
		}
	}
}

func TestExactMatchesFloat(t *testing.T) {
	p := power.MustAlpha(3)
	for seed := int64(0); seed < 8; seed++ {
		in, err := workload.Bursty(workload.Spec{N: 8, M: 3, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		fast, err := Schedule(in)
		if err != nil {
			t.Fatalf("seed %d float: %v", seed, err)
		}
		exact, err := Schedule(in, Exact())
		if err != nil {
			t.Fatalf("seed %d exact: %v", seed, err)
		}
		if err := exact.Schedule.Verify(in); err != nil {
			t.Fatalf("seed %d exact infeasible: %v", seed, err)
		}
		fe, ee := fast.Schedule.Energy(p), exact.Schedule.Energy(p)
		if math.Abs(fe-ee) > 1e-6*(1+ee) {
			t.Errorf("seed %d: float energy %v, exact energy %v", seed, fe, ee)
		}
		if len(fast.Phases) != len(exact.Phases) {
			t.Errorf("seed %d: float %d phases, exact %d", seed, len(fast.Phases), len(exact.Phases))
		}
	}
}

func TestPhaseStructure(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		in, err := workload.Staircase(workload.Spec{N: 8, M: 2, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		res, err := Schedule(in)
		if err != nil {
			t.Fatal(err)
		}
		// Speeds strictly decreasing across phases; at most n phases.
		if len(res.Phases) > in.N() {
			t.Errorf("seed %d: %d phases > n=%d", seed, len(res.Phases), in.N())
		}
		for i := 1; i < len(res.Phases); i++ {
			if res.Phases[i].Speed >= res.Phases[i-1].Speed+1e-9 {
				t.Errorf("seed %d: phase speeds not decreasing: %v then %v",
					seed, res.Phases[i-1].Speed, res.Phases[i].Speed)
			}
		}
		// Lemma 3: every phase's processor counts obey
		// m_ij = min(n_ij, m - used), with used accumulated over phases.
		used := make([]int, len(res.Intervals))
		for pi, ph := range res.Phases {
			members := make([]job.Job, 0, len(ph.JobIDs))
			for _, id := range ph.JobIDs {
				j, ok := in.ByID(id)
				if !ok {
					t.Fatalf("phase references unknown job %d", id)
				}
				members = append(members, j)
			}
			for jx, iv := range res.Intervals {
				nij := 0
				for _, j := range members {
					if j.ActiveIn(iv.Start, iv.End) {
						nij++
					}
				}
				want := nij
				if free := in.M - used[jx]; free < want {
					want = free
				}
				if ph.Procs[jx] != want {
					t.Errorf("seed %d phase %d interval %d: m_ij=%d, want %d",
						seed, pi, jx, ph.Procs[jx], want)
				}
				used[jx] += ph.Procs[jx]
			}
		}
		// Every job appears in exactly one phase.
		seen := map[int]int{}
		for _, ph := range res.Phases {
			for _, id := range ph.JobIDs {
				seen[id]++
			}
		}
		for _, j := range in.Jobs {
			if seen[j.ID] != 1 {
				t.Errorf("seed %d: job %d in %d phases", seed, j.ID, seen[j.ID])
			}
		}
	}
}

func TestJobsRunAtConstantPhaseSpeed(t *testing.T) {
	in, err := workload.Bursty(workload.Spec{N: 12, M: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Schedule(in)
	if err != nil {
		t.Fatal(err)
	}
	speedOf := map[int]float64{}
	for _, ph := range res.Phases {
		for _, id := range ph.JobIDs {
			speedOf[id] = ph.Speed
		}
	}
	for _, seg := range res.Schedule.Segments {
		if want := speedOf[seg.JobID]; math.Abs(seg.Speed-want) > 1e-9*(1+want) {
			t.Errorf("job %d segment at speed %v, phase speed %v", seg.JobID, seg.Speed, want)
		}
	}
}

func TestStats(t *testing.T) {
	in, err := workload.Uniform(workload.Spec{N: 10, M: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Schedule(in)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Phases != len(res.Phases) {
		t.Errorf("Stats.Phases = %d, len(Phases) = %d", res.Stats.Phases, len(res.Phases))
	}
	if res.Stats.Rounds < res.Stats.Phases {
		t.Errorf("Rounds %d < Phases %d", res.Stats.Rounds, res.Stats.Phases)
	}
	if res.Stats.FlowVertices < 3 {
		t.Errorf("FlowVertices = %d", res.Stats.FlowVertices)
	}
}

// Property: on every generator and random seed the schedule is feasible,
// with at most n distinct speeds (Lemma 1).
func TestFeasibilityProperty(t *testing.T) {
	gens := workload.All()
	f := func(seed int64, rawG uint8, rawM uint8) bool {
		g := gens[int(rawG)%len(gens)]
		m := 1 + int(rawM%4)
		in, err := g.Make(workload.Spec{N: 10, M: m, Seed: seed})
		if err != nil {
			return false
		}
		res, err := Schedule(in)
		if err != nil {
			return false
		}
		if err := res.Schedule.Verify(in); err != nil {
			return false
		}
		return len(res.Schedule.DistinctSpeeds(1e-6)) <= in.N()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: adding a processor never increases the optimal energy.
func TestMonotoneInProcessorsProperty(t *testing.T) {
	p := power.MustAlpha(2)
	f := func(seed int64) bool {
		in1, err := workload.Uniform(workload.Spec{N: 8, M: 1, Seed: seed})
		if err != nil {
			return false
		}
		var prev float64 = math.Inf(1)
		for m := 1; m <= 4; m++ {
			in, err := job.NewInstance(m, in1.Jobs)
			if err != nil {
				return false
			}
			res, err := Schedule(in)
			if err != nil {
				return false
			}
			e := res.Schedule.Energy(p)
			if e > prev*(1+1e-9)+1e-9 {
				return false
			}
			prev = e
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: scaling all works by c > 1 scales the optimal energy by
// exactly c^alpha (speeds scale linearly, durations are unchanged).
func TestWorkScalingProperty(t *testing.T) {
	alpha := 2.0
	p := power.MustAlpha(alpha)
	f := func(seed int64) bool {
		in, err := workload.Uniform(workload.Spec{N: 8, M: 2, Seed: seed})
		if err != nil {
			return false
		}
		base, err := Schedule(in)
		if err != nil {
			return false
		}
		scaled := append([]job.Job(nil), in.Jobs...)
		for i := range scaled {
			scaled[i].Work *= 3
		}
		inS, err := job.NewInstance(2, scaled)
		if err != nil {
			return false
		}
		resS, err := Schedule(inS)
		if err != nil {
			return false
		}
		want := base.Schedule.Energy(p) * math.Pow(3, alpha)
		got := resS.Schedule.Energy(p)
		return math.Abs(got-want) < 1e-6*(1+want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// The solver must be deterministic: identical inputs produce identical
// schedules segment by segment (map iteration is sorted away).
func TestDeterministicOutput(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		in, err := workload.Bursty(workload.Spec{N: 12, M: 3, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		a, err := Schedule(in)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Schedule(in)
		if err != nil {
			t.Fatal(err)
		}
		if len(a.Schedule.Segments) != len(b.Schedule.Segments) {
			t.Fatalf("seed %d: segment counts differ: %d vs %d",
				seed, len(a.Schedule.Segments), len(b.Schedule.Segments))
		}
		for i := range a.Schedule.Segments {
			if a.Schedule.Segments[i] != b.Schedule.Segments[i] {
				t.Fatalf("seed %d: segment %d differs:\n%v\n%v",
					seed, i, a.Schedule.Segments[i], b.Schedule.Segments[i])
			}
		}
	}
}

// Local optimality: moving work between two execution windows of the
// same job (keeping the windows and all other jobs fixed) is always a
// feasible perturbation, so it can never reduce the energy of an optimal
// schedule. This is a derivative-free spot check of optimality
// independent of the convex and LP baselines.
func TestLocalOptimalityUnderPerturbation(t *testing.T) {
	p := power.MustAlpha(2.3)
	for seed := int64(0); seed < 6; seed++ {
		in, err := workload.Bursty(workload.Spec{N: 10, M: 2, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		res, err := Schedule(in)
		if err != nil {
			t.Fatal(err)
		}
		base := res.Schedule.Energy(p)

		byJob := map[int][]int{} // job ID -> segment indices
		for i, seg := range res.Schedule.Segments {
			byJob[seg.JobID] = append(byJob[seg.JobID], i)
		}
		perturbed := 0
		for _, idxs := range byJob {
			if len(idxs) < 2 {
				continue
			}
			a, b := idxs[0], idxs[len(idxs)-1]
			for _, frac := range []float64{-0.2, 0.2} {
				segs := append([]schedule.Segment(nil), res.Schedule.Segments...)
				sa, sb := segs[a], segs[b]
				delta := frac * math.Min(sa.Work(), sb.Work()) * 0.5
				sa.Speed -= delta / sa.Len()
				sb.Speed += delta / sb.Len()
				if sa.Speed <= 0 || sb.Speed <= 0 {
					continue
				}
				segs[a], segs[b] = sa, sb
				mutant := &schedule.Schedule{M: res.Schedule.M, Segments: segs}
				if err := mutant.Verify(in); err != nil {
					t.Fatalf("seed %d: perturbation broke feasibility: %v", seed, err)
				}
				if e := mutant.Energy(p); e < base-1e-9*(1+base) {
					t.Errorf("seed %d: perturbation reduced energy %v -> %v", seed, base, e)
				}
				perturbed++
			}
		}
		if perturbed == 0 {
			t.Logf("seed %d: no multi-segment jobs to perturb", seed)
		}
	}
}

// Both engines find each job's intervals by binary search over the
// sorted partition (activeRun). Over the generator sweep, the run must
// be exactly the set of intervals job.ActiveIn accepts.
func TestActiveRunMatchesScan(t *testing.T) {
	for _, gen := range workload.All() {
		for _, n := range []int{8, 24, 64, 160} {
			for _, m := range []int{1, 2, 4} {
				for seed := int64(1); seed <= 4; seed++ {
					in, err := gen.Make(workload.Spec{N: n, M: m, Seed: seed})
					if err != nil {
						t.Fatal(err)
					}
					ivs := job.Partition(in.Jobs)
					for k, j := range in.Jobs {
						lo, hi := activeRun(ivs, j)
						for jx, iv := range ivs {
							if inRun := lo <= jx && jx < hi; inRun != j.ActiveIn(iv.Start, iv.End) {
								t.Fatalf("%s n=%d m=%d seed=%d job %d: run [%d,%d) disagrees with ActiveIn at interval %d",
									gen.Name, n, m, seed, k, lo, hi, jx)
							}
						}
					}
				}
			}
		}
	}
}
