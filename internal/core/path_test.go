package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/platevent"
	"repro/internal/platform"
	"repro/internal/sched"
	"repro/internal/vtime"
)

// speedClassedConfig hand-builds a configuration of n same-key "cpu"
// PEs with n distinct speed factors — n cost classes under a single
// interned type, the big.LITTLE shape pushed to (and past) the indexed
// representation boundary. Hand-built Configs exercise the
// no-finalize fallback paths of the platform package on top.
func speedClassedConfig(n int) *platform.Config {
	cfg := &platform.Config{
		Name:     fmt.Sprintf("%dclass-test", n),
		Platform: "test",
		Overlay:  platform.A53,
	}
	for i := 0; i < n; i++ {
		typ := &platform.PEType{
			Name:        fmt.Sprintf("CPU%d", i),
			Key:         "cpu",
			Class:       platform.CPU,
			SpeedFactor: 1 + float64(i)/1000,
			SchedOpNS:   55,
			PowerW:      0.8,
		}
		cfg.PEs = append(cfg.PEs, &platform.PE{ID: i, Type: typ, HostCore: i, Share: 1})
	}
	return cfg
}

// classBoundaryWorkload is a small cpu-only-able trace dense enough to
// exercise scheduling on wide pools.
func classBoundaryWorkload() []Arrival {
	wtx := apps.WiFiTX(apps.DefaultWiFiParams())
	wrx := apps.WiFiRX(apps.DefaultWiFiParams())
	var out []Arrival
	for i := 0; i < 12; i++ {
		out = append(out,
			Arrival{Spec: wtx, At: vtime.Time(i) * 40_000},
			Arrival{Spec: wrx, At: vtime.Time(i)*40_000 + 15_000},
		)
	}
	return out
}

// TestSchedulerPathClassBoundary pins what the 65th cost class costs:
// the view stays (one ready list on every configuration) but stops being
// Indexed, so the built-in policies consume it through their slice
// Schedule — path "slice", report byte-identical to the SliceOnly run.
// 64 classes stay indexed.
func TestSchedulerPathClassBoundary(t *testing.T) {
	trace := classBoundaryWorkload()
	for _, n := range []int{64, 65} {
		cfg := speedClassedConfig(n)
		if got := cfg.NumClasses(); got != n {
			t.Fatalf("hand-built config interned %d classes, want %d", got, n)
		}
		wantPath := SchedulerPathIndexed
		if n > 64 {
			wantPath = SchedulerPathSlice
		}
		for _, policyName := range []string{"frfs", "eft", "eft-power"} {
			indexed, err := sched.New(policyName, 5)
			if err != nil {
				t.Fatal(err)
			}
			e, err := New(Options{
				Config: cfg, Policy: indexed, Registry: apps.Registry(),
				Seed: 2, SkipExecution: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			if e.SchedulerPath() != wantPath {
				t.Fatalf("%d classes/%s: SchedulerPath = %q, want %q", n, policyName, e.SchedulerPath(), wantPath)
			}
			got, err := e.Run(trace)
			if err != nil {
				t.Fatalf("%d classes/%s: %v", n, policyName, err)
			}
			if got.SchedulerPath != wantPath {
				t.Fatalf("%d classes/%s: report stamped %q, want %q", n, policyName, got.SchedulerPath, wantPath)
			}
			slice, _ := sched.New(policyName, 5)
			eS, err := New(Options{
				Config: cfg, Policy: sched.SliceOnly(slice), Registry: apps.Registry(),
				Seed: 2, SkipExecution: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			if eS.SchedulerPath() != SchedulerPathSlice {
				t.Fatalf("SliceOnly emulator reports path %q", eS.SchedulerPath())
			}
			want, err := eS.Run(trace)
			if err != nil {
				t.Fatal(err)
			}
			compareReports(t, want, got)
		}
	}
}

// formerSliceRebuildGolden holds the SHA-256 of the JSON report (with
// SchedulerPath blanked) of every TestFormerSliceRebuildGolden case,
// generated at the last commit that still had the per-invocation
// slice-rebuild path (PR 14), where all but the 64/static rows took it.
var formerSliceRebuildGolden = map[string]string{
	"64/static/frfs":      "9ea7b01ca11f720e9ccb7b42bccb5cac5f5b69525f1e20fc7932d1762c34492c",
	"64/static/met":       "97a278c4c03082c47d3b020aab2e0ba2d55dd740bfc4680b309a381549137992",
	"64/static/eft":       "13b0d7d9bb032a934b76a3fcd23ebc99fbf20243617afd97d64cc751cb51e187",
	"64/static/random":    "0a208391845f956faa5510e743a12f69ccc3096e419f5e9eb8026951e2af2635",
	"64/static/frfs-rq":   "2b442725e2ad4690f1e7bcab5ef99f2d9e8c5314a8dcfde58bfed2f330d11131",
	"64/static/eft-rq":    "e1353df245d3f58b70cce8b0e73eabd3c044e446dedaf27a9d36dd4496b1e18d",
	"64/static/eft-power": "0da47c27c8a1a1d7a4fb56d91816c8b197eaf2ed2312f5adf66e6bfecb175137",
	"64/events/frfs":      "99b5f7830ad3b2dfd013d1998cf6017f832b74a989cc984497c379441ea0e914",
	"64/events/met":       "938a5aa778f192a9a0b5459977f9a3c80639bd56a7e2224473d5ef6d297d3004",
	"64/events/eft":       "34a121ea1d03feb49b7da40465cc5233d12dbd3b12fccefbaf8d2128fba42f19",
	"64/events/random":    "ee8225cc743489343ba5b0dfe6f2e3e8faec0f3c1fadcd498415662af1ee0868",
	"64/events/frfs-rq":   "c31887921c754b22ade714022239c64f196ec41fd2de568eb0aab430269a9a2f",
	"64/events/eft-rq":    "7ca557772e6aa21c88dbcff0379b75c37be732191fb66eeb2044d6e0d8a7d051",
	"64/events/eft-power": "51adafdcda62358752e6e2be2c393bcd15ba565c48226712783a2fa26a1d26fa",
	"65/static/frfs":      "634983b439425fc10e0467a092f03c29dceb49d78a210375be874b64de6a9d39",
	"65/static/met":       "e9b9308269291bfa3d84f602ce434ddfac52a46925556c16c476c0a3a24b2fd9",
	"65/static/eft":       "b861e65e07ddb3219852ba994e24c763217c0ec7b3b8b0fee4cac78be9cd5691",
	"65/static/random":    "8b68dfc57846996f89d177344f334777dc9dc5cb25f5479e7a153590ec99f7e0",
	"65/static/frfs-rq":   "5860e711c6c2fe559c53ad0c010af553c5ab0a991d61a01baf5a8f7ccf356675",
	"65/static/eft-rq":    "3aa71c466ca666e06033b1ede1628d4bb8b584ff721a3a0d4ec6fd5b09606693",
	"65/static/eft-power": "0fe571f7f09f3582e772b40a4e413cc993c8fb1920ab619038f4c54b642c9fa7",
	"65/events/frfs":      "1b88ddd5ba625220b93ea9ad7931bdab4bc73c5bf8439d4624d893d931eb52de",
	"65/events/met":       "57779f6637a3f990e16093f1b062ce89d16ace25e3e879292c0ef30c48c463f8",
	"65/events/eft":       "019a8bf8f943ff40ea183a36734a49013402ee6d6871aab04de4d89efce58661",
	"65/events/random":    "61df449a21901f411a683803693820958effb150ce5007d6fc5ff790b885faf0",
	"65/events/frfs-rq":   "19d544f1acee01800646f282f2d30f9afbf523ab73ed2c1dbd1a61f0bd81bce1",
	"65/events/eft-rq":    "bbc265a41a2db3bde827298ba68edbadfa5f2c1e902d94492bff2079abdd9be9",
	"65/events/eft-power": "7c36965783272777b6f05fdbbbb26817f7c7f07a01407707139b3dd6dc7faa11",
}

// TestFormerSliceRebuildGolden pins the configurations the deleted
// rebuild path used to serve — 65 cost classes, and 64 pushed to 66 by
// two DVFS steps — byte for byte on the view-backed slice path that
// replaced it, for every built-in policy, static and under a
// DVFS+fault schedule.
func TestFormerSliceRebuildGolden(t *testing.T) {
	trace := classBoundaryWorkload()
	for _, n := range []int{64, 65} {
		for _, kind := range []string{"static", "events"} {
			var events *platevent.Schedule
			if kind == "events" {
				events = platevent.New().SetSpeedAt(50_000, 3, 7.25).FaultAt(90_000, 5).
					SetSpeedAt(120_000, 9, 3.5).RestoreAt(200_000, 5)
			}
			wantPath := SchedulerPathSlice
			if n == 64 && kind == "static" {
				wantPath = SchedulerPathIndexed
			}
			for _, name := range sched.Names() {
				key := fmt.Sprintf("%d/%s/%s", n, kind, name)
				policy, err := sched.New(name, 5)
				if err != nil {
					t.Fatal(err)
				}
				e, err := New(Options{
					Config: speedClassedConfig(n), Policy: policy, Registry: apps.Registry(),
					Seed: 2, SkipExecution: true, Events: events,
				})
				if err != nil {
					t.Fatal(err)
				}
				r, err := e.Run(trace)
				if err != nil {
					t.Fatalf("%s: %v", key, err)
				}
				if r.SchedulerPath != wantPath {
					t.Errorf("%s: path %q, want %q", key, r.SchedulerPath, wantPath)
				}
				r.SchedulerPath = ""
				data, err := json.Marshal(r)
				if err != nil {
					t.Fatal(err)
				}
				sum := sha256.Sum256(data)
				if got := hex.EncodeToString(sum[:]); got != formerSliceRebuildGolden[key] {
					t.Errorf("%s: report digest %s, want %s", key, got, formerSliceRebuildGolden[key])
				}
			}
		}
	}
}

// TestCompileMetaMatchesViewMetaFor cross-checks the two independent
// derivations of the class partition: core.Compile lowers ReadyMeta
// against platform.Config.Classes, while sched.NewView interns classes
// from the handler table. For every node of every application on the
// three platform families — classes==types (ZCU102), a split "cpu"
// type (Odroid), and both at many-PE scale (synthetic-het) — the
// compiled metadata must equal the view's own lowering bit for bit.
func TestCompileMetaMatchesViewMetaFor(t *testing.T) {
	cfgs := []*platform.Config{zcu(t, 3, 2)}
	if od, err := platform.OdroidXU3(4, 3); err == nil {
		cfgs = append(cfgs, od)
	} else {
		t.Fatal(err)
	}
	if het, err := platform.SyntheticHet(8, 8, 4); err == nil {
		cfgs = append(cfgs, het)
	} else {
		t.Fatal(err)
	}
	reg := apps.Registry()
	for _, cfg := range cfgs {
		e, err := New(Options{
			Config: cfg, Policy: sched.EFT{}, Registry: reg, SkipExecution: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !e.view.Indexed() {
			t.Fatalf("%s: view is not indexed", cfg.Name)
		}
		if e.view.NumClasses() != cfg.NumClasses() {
			t.Fatalf("%s: view interned %d classes, config %d", cfg.Name, e.view.NumClasses(), cfg.NumClasses())
		}
		for _, spec := range fourApps() {
			p, err := Compile(spec, cfg, reg)
			if err != nil {
				t.Fatal(err)
			}
			for i := range p.nodes {
				pn := &p.nodes[i]
				want := e.view.MetaFor(pn.choices)
				if pn.meta.ClassMask != want.ClassMask || pn.meta.METMask != want.METMask ||
					pn.meta.NumChoices != want.NumChoices {
					t.Fatalf("%s/%s/%s: compiled meta %+v, view lowering %+v",
						cfg.Name, spec.AppName, pn.name, pn.meta, want)
				}
				if len(pn.meta.Costs) != len(want.Costs) {
					t.Fatalf("%s/%s/%s: cost table length %d vs %d",
						cfg.Name, spec.AppName, pn.name, len(pn.meta.Costs), len(want.Costs))
				}
				for c := range want.Costs {
					if pn.meta.Costs[c] != want.Costs[c] {
						t.Fatalf("%s/%s/%s: class %d cost %d vs %d",
							cfg.Name, spec.AppName, pn.name, c, pn.meta.Costs[c], want.Costs[c])
					}
				}
			}
		}
	}
}

// TestNewRejectsDegenerateConfigs pins the construction-time
// validation: configurations that would crash or stall mid-run fail at
// New with a descriptive error.
func TestNewRejectsDegenerateConfigs(t *testing.T) {
	reg := apps.Registry()
	if _, err := New(Options{Policy: sched.FRFS{}, Registry: reg}); err == nil ||
		!strings.Contains(err.Error(), "at least one PE") {
		t.Fatalf("nil config: %v", err)
	}
	empty := &platform.Config{Name: "empty", Overlay: platform.A53}
	if _, err := New(Options{Config: empty, Policy: sched.FRFS{}, Registry: reg}); err == nil ||
		!strings.Contains(err.Error(), "at least one PE") {
		t.Fatalf("empty config: %v", err)
	}
	noOverlay := &platform.Config{Name: "no-overlay", PEs: []*platform.PE{
		{ID: 0, Type: platform.A53, Share: 1},
	}}
	if _, err := New(Options{Config: noOverlay, Policy: sched.FRFS{}, Registry: reg}); err == nil ||
		!strings.Contains(err.Error(), "overlay") {
		t.Fatalf("overlay-less config: %v", err)
	}
	noType := &platform.Config{Name: "no-type", Overlay: platform.A53, PEs: []*platform.PE{
		{ID: 0, Share: 1},
	}}
	if _, err := New(Options{Config: noType, Policy: sched.FRFS{}, Registry: reg}); err == nil ||
		!strings.Contains(err.Error(), "no type") {
		t.Fatalf("type-less PE: %v", err)
	}
	// A PE bolted on after the configuration interned its type keys.
	stale := zcu(t, 1, 0)
	stale.PEs = append(stale.PEs, &platform.PE{ID: 9, Share: 1, Type: &platform.PEType{Key: "npu", Class: platform.CPU}})
	if _, err := New(Options{Config: stale, Policy: sched.FRFS{}, Registry: reg}); err == nil ||
		!strings.Contains(err.Error(), "never interned") {
		t.Fatalf("PE with an uninterned type key: %v", err)
	}
}
