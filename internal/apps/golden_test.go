package apps

import (
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/sched"
)

// validationMemoryGolden is the SHA-256 of every instance's memory
// after one executing emulation of the four applications. The Check*
// functions are tolerance checks and the benchmark's sim_digest hashes
// simulated statistics only; this pins the bits the kernels write. It
// changes only when a kernel's numeric output changes — regenerate it
// at the commit BEFORE such a change, never in the same one. Generated
// on amd64; architectures where the compiler fuses x*y+z round
// differently.
const validationMemoryGolden = "8852f3955fbe83e29410f82cd1787f03abfd944cec33a7e929c1de543d0980a1"

func TestValidationMemoryGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden generated on amd64; %s may fuse multiply-adds", runtime.GOARCH)
	}
	cfg, err := platform.ZCU102(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	specs := Specs()
	names := make([]string, 0, len(specs))
	for name := range specs {
		names = append(names, name)
	}
	sort.Strings(names)
	var arrivals []core.Arrival
	for _, name := range names {
		arrivals = append(arrivals, core.Arrival{Spec: specs[name]})
	}
	e, err := core.New(core.Options{
		Config: cfg, Policy: sched.FRFS{}, Registry: Registry(), Seed: 29,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(arrivals); err != nil {
		t.Fatal(err)
	}

	h := sha256.New()
	for _, inst := range e.Instances() {
		h.Write([]byte(inst.Spec.AppName))
		vars := make([]string, 0, len(inst.Spec.Variables))
		for name := range inst.Spec.Variables {
			vars = append(vars, name)
		}
		sort.Strings(vars)
		for _, name := range vars {
			v := inst.Mem.MustLookup(name)
			h.Write([]byte(name))
			h.Write(v.Raw)
			h.Write(v.Bytes())
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != validationMemoryGolden {
		t.Fatalf("instance memory digest %s, want %s: a kernel's output bits changed", got, validationMemoryGolden)
	}
}
