package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"

	"repro/internal/appmodel"
	"repro/internal/core"
	"repro/internal/kernels"
	"repro/internal/platform"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/sweep"
	"repro/internal/vtime"
	"repro/internal/workload"
)

// PlatformSpec names an emulated hardware configuration in a request.
// It mirrors cmd/emulate's -platform flags.
type PlatformSpec struct {
	// Name is zcu102, odroid, synthetic, or synthetic-het.
	Name string `json:"name"`
	// Cores/FFTs size zcu102 and synthetic; Big/Little size odroid and
	// (with FFTs) synthetic-het. Zero fields take the platform's
	// defaults.
	Cores  int `json:"cores,omitempty"`
	FFTs   int `json:"ffts,omitempty"`
	Big    int `json:"big,omitempty"`
	Little int `json:"little,omitempty"`
}

// build constructs the platform config (validating the spec).
func (p PlatformSpec) build() (*platform.Config, error) {
	orDefault := func(v, d int) int {
		if v <= 0 {
			return d
		}
		return v
	}
	switch p.Name {
	case "zcu102":
		return platform.ZCU102(orDefault(p.Cores, 3), orDefault(p.FFTs, 2))
	case "odroid":
		return platform.OdroidXU3(orDefault(p.Big, 4), orDefault(p.Little, 3))
	case "synthetic":
		return platform.Synthetic(orDefault(p.Cores, 16), orDefault(p.FFTs, 4))
	case "synthetic-het":
		return platform.SyntheticHet(orDefault(p.Big, 8), orDefault(p.Little, 6), orDefault(p.FFTs, 2))
	default:
		return nil, fmt.Errorf("unknown platform %q (zcu102, odroid, synthetic, synthetic-het)", p.Name)
	}
}

// SweepRequest is the body of POST /v1/sweeps: a design-space grid
// policies × rates (or one validation workload) × seeds, exactly the
// paper's evaluation shape. The grid expands in deterministic
// policy-major, rate-middle, seed-minor order; that order is the cell
// index space every response event refers to.
type SweepRequest struct {
	// Tenant names the admission-control principal; required.
	Tenant string `json:"tenant"`
	// Label is echoed in progress output; optional.
	Label string `json:"label,omitempty"`
	// Platform picks the emulated hardware configuration.
	Platform PlatformSpec `json:"platform"`
	// Policies are scheduler names (sched.Names()); at least one.
	Policies []string `json:"policies"`
	// RatesJobsPerMS selects performance mode: one grid column per
	// injection rate, applications arriving periodically over Frame.
	RatesJobsPerMS []float64 `json:"rates_jobs_per_ms,omitempty"`
	// FrameMS is the performance-mode injection frame (default 100ms).
	FrameMS float64 `json:"frame_ms,omitempty"`
	// Apps selects validation mode (used when RatesJobsPerMS is
	// empty): app name → instance count, all injected at t=0.
	Apps map[string]int `json:"apps,omitempty"`
	// Seeds drive the per-cell jitter model; empty defaults to [1].
	Seeds []int64 `json:"seeds,omitempty"`
	// JitterSigma is the log-normal timing jitter (0 = deterministic).
	JitterSigma float64 `json:"jitter_sigma,omitempty"`
	// SkipExecution selects the timing-only fast path (scheduler
	// studies); functional runs leave it false.
	SkipExecution bool `json:"skip_execution,omitempty"`
	// TimeoutMS bounds the request's wall time; 0 uses the server
	// default.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// appCount is the canonical (sorted) form of the Apps map used for
// hashing and trace construction.
type appCount struct {
	Name  string `json:"name"`
	Count int    `json:"count"`
}

// cellKey is everything that determines one cell's result. Marshaled
// to canonical JSON (fixed field order, sorted app list) and hashed,
// it is the cell's ledger identity: two requests that mean the same
// emulation — across restarts, tenants, and grid shapes — share bytes.
type cellKey struct {
	Version       string       `json:"version"`
	Platform      PlatformSpec `json:"platform"`
	Policy        string       `json:"policy"`
	Mode          string       `json:"mode"`
	RateJobsPerMS float64      `json:"rate_jobs_per_ms"`
	FrameMS       float64      `json:"frame_ms"`
	Apps          []appCount   `json:"apps"`
	Seed          int64        `json:"seed"`
	JitterSigma   float64      `json:"jitter_sigma"`
	SkipExecution bool         `json:"skip_execution"`
}

// hash returns the hex SHA-256 of the canonical key encoding.
func (k cellKey) hash() string {
	b, err := json.Marshal(k)
	if err != nil {
		// cellKey is plain data; Marshal cannot fail.
		panic(fmt.Sprintf("serve: marshal cellKey: %v", err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// CellResult is the deterministic per-cell payload streamed to the
// client and journaled in the ledger. Every field is a pure function
// of the cell spec — virtual-clock quantities and scheduler counters,
// never host timing — which is what makes resumed output byte-
// identical to uninterrupted output.
type CellResult struct {
	Policy        string  `json:"policy"`
	RateJobsPerMS float64 `json:"rate_jobs_per_ms,omitempty"`
	Seed          int64   `json:"seed"`
	MakespanNS    int64   `json:"makespan_ns"`
	Tasks         int64   `json:"tasks"`
	Apps          int64   `json:"apps"`
	SchedInvoked  int     `json:"sched_invocations"`
	SchedOps      int64   `json:"sched_ops"`
	MaxReady      int     `json:"max_ready"`
	WaitP50NS     int64   `json:"wait_p50_ns"`
	WaitP99NS     int64   `json:"wait_p99_ns"`
	RespP50NS     int64   `json:"resp_p50_ns"`
	RespP99NS     int64   `json:"resp_p99_ns"`
	EnergyJ       float64 `json:"energy_j"`
}

// sweepPlan is a validated, expanded request: the grid cells, their
// content hashes, and the shared immutable inputs.
type sweepPlan struct {
	req    SweepRequest
	config *platform.Config
	specs  map[string]*appmodel.AppSpec
	reg    *kernels.Registry
	cells  []planCell
}

type planCell struct {
	key   cellKey
	hash  string
	label string
}

// planSweep validates the request and expands the grid. All
// per-request validation lives here so a bad request is a 400 before
// admission, not a mid-stream cell error after it.
func planSweep(req SweepRequest, specs map[string]*appmodel.AppSpec, reg *kernels.Registry) (*sweepPlan, error) {
	if req.Tenant == "" {
		return nil, fmt.Errorf("tenant is required")
	}
	cfg, err := req.Platform.build()
	if err != nil {
		return nil, err
	}
	if len(req.Policies) == 0 {
		return nil, fmt.Errorf("at least one policy is required (have: %v)", sched.Names())
	}
	for _, name := range req.Policies {
		if _, err := sched.New(name, 1); err != nil {
			return nil, err
		}
	}
	mode := "performance"
	var apps []appCount
	if len(req.RatesJobsPerMS) == 0 {
		mode = "validation"
		if len(req.Apps) == 0 {
			return nil, fmt.Errorf("either rates_jobs_per_ms or apps must be given")
		}
		for name, n := range req.Apps {
			if _, ok := specs[name]; !ok {
				return nil, fmt.Errorf("unknown application %q", name)
			}
			if n <= 0 {
				return nil, fmt.Errorf("application %q count must be positive", name)
			}
			apps = append(apps, appCount{name, n})
		}
		sort.Slice(apps, func(i, j int) bool { return apps[i].Name < apps[j].Name })
	} else {
		for _, r := range req.RatesJobsPerMS {
			if r <= 0 {
				return nil, fmt.Errorf("injection rate must be positive, got %v", r)
			}
		}
	}
	if req.FrameMS < 0 {
		return nil, fmt.Errorf("frame_ms must be non-negative")
	}
	if mode == "performance" && req.FrameMS == 0 {
		req.FrameMS = 100
	}
	if len(req.Seeds) == 0 {
		req.Seeds = []int64{1}
	}

	p := &sweepPlan{req: req, config: cfg, specs: specs, reg: reg}
	rates := req.RatesJobsPerMS
	if mode == "validation" {
		rates = []float64{0}
	}
	for _, policy := range req.Policies {
		for _, rate := range rates {
			for _, seed := range req.Seeds {
				key := cellKey{
					Version:       ledgerVersion,
					Platform:      req.Platform,
					Policy:        policy,
					Mode:          mode,
					RateJobsPerMS: rate,
					FrameMS:       req.FrameMS,
					Apps:          apps,
					Seed:          seed,
					JitterSigma:   req.JitterSigma,
					SkipExecution: req.SkipExecution,
				}
				label := fmt.Sprintf("%s@%g/seed%d", policy, rate, seed)
				if mode == "validation" {
					label = fmt.Sprintf("%s/validation/seed%d", policy, seed)
				}
				p.cells = append(p.cells, planCell{key: key, hash: key.hash(), label: label})
			}
		}
	}
	return p, nil
}

// runCell emulates one grid coordinate. The policy, trace, and sink are
// all constructed here, per call — cells run concurrently and those
// values are single-use (the repolint singleuse contract). The returned
// Online is the cell's own sink: the ledger payload is projected from
// it, and the request's progress tally folds its totals once the cell
// is journaled.
func (p *sweepPlan) runCell(pc planCell, programs *core.ProgramCache, s *core.Scratch) (CellResult, *stats.Online, error) {
	policy, err := sched.New(pc.key.Policy, pc.key.Seed)
	if err != nil {
		return CellResult{}, nil, err
	}
	var arrivals []core.Arrival
	if pc.key.Mode == "validation" {
		counts := make(map[string]int, len(pc.key.Apps))
		for _, a := range pc.key.Apps {
			counts[a.Name] = a.Count
		}
		arrivals, err = workload.Validation(p.specs, counts)
	} else {
		frame := vtime.Duration(pc.key.FrameMS * float64(vtime.Millisecond))
		arrivals, err = workload.RateTrace(p.specs, pc.key.RateJobsPerMS, frame)
	}
	if err != nil {
		return CellResult{}, nil, err
	}
	online := stats.NewOnline(0)
	report, err := sweep.Emulation{
		Config:        p.config,
		Policy:        policy,
		Registry:      p.reg,
		Arrivals:      arrivals,
		Seed:          pc.key.Seed,
		JitterSigma:   pc.key.JitterSigma,
		SkipExecution: pc.key.SkipExecution,
		Programs:      programs,
		Sink:          online,
	}.Run(s)
	if err != nil {
		return CellResult{}, nil, err
	}
	return makeCellResult(pc.key, report, online), online, nil
}

// makeCellResult projects a report + per-cell online sink into the
// deterministic ledger payload.
func makeCellResult(key cellKey, r *stats.Report, o *stats.Online) CellResult {
	q := func(d *stats.Dist, p float64) int64 {
		v := d.Quantile(p)
		if v != v { // NaN: no post-warmup records
			return 0
		}
		return int64(v)
	}
	return CellResult{
		Policy:        key.Policy,
		RateJobsPerMS: key.RateJobsPerMS,
		Seed:          key.Seed,
		MakespanNS:    int64(r.Makespan),
		Tasks:         o.TasksSeen,
		Apps:          o.AppsSeen,
		SchedInvoked:  r.Sched.Invocations,
		SchedOps:      r.Sched.TotalOps,
		MaxReady:      r.Sched.MaxReadyLen,
		WaitP50NS:     q(&o.Wait, 0.50),
		WaitP99NS:     q(&o.Wait, 0.99),
		RespP50NS:     q(&o.Response, 0.50),
		RespP99NS:     q(&o.Response, 0.99),
		EnergyJ:       r.TotalEnergyJ(),
	}
}
