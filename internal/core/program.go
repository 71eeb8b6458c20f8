package core

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/appmodel"
	"repro/internal/kernels"
	"repro/internal/platform"
	"repro/internal/sched"
)

// Program is the compiled template of one application archetype for
// one (configuration, registry) pair: the application handler's
// parse-time work — runfunc symbol resolution, platform-support
// validation, DAG shape analysis — done once and lowered into
// integer-indexed form. Per-arrival instantiation then degenerates to
// filling a contiguous []Task slab: no maps, no string keys, no
// registry lookups, no per-node allocations.
//
// Node IDs are dense indices assigned in sorted-name order, so a
// Program is deterministic for a given AppSpec regardless of map
// iteration order. Head IDs are ascending, matching the sorted order
// of AppSpec.Heads, and each node's successor IDs follow the spec's
// successor list order — both load-bearing for byte-identical replay
// of the pre-compilation emulator.
//
// A Program is immutable after Compile and may be shared freely across
// emulators and sweep workers. The spec, configuration and registry it
// was compiled from must not be mutated afterwards.
type Program struct {
	// Spec is the archetype this template was compiled from.
	Spec *appmodel.AppSpec
	// nodes is indexed by dense node ID.
	nodes []progNode
	// heads lists the entry node IDs (no predecessors), ascending.
	heads []int32
}

// progNode is the compiled form of one DAG node.
type progNode struct {
	name string
	// spec is a copy of the node's parsed form; dispatch reads the
	// platform cost annotations and argument list from it.
	spec appmodel.NodeSpec
	// preds is the predecessor count an instantiated task starts with.
	preds int32
	// succs are the IDs of the nodes unblocked by this one, in spec
	// successor-list order.
	succs []int32
	// choices is the scheduler view of spec.Platforms, index-aligned
	// with it: choices[i].TypeID is the configuration's dense type
	// index of Platforms[i].Name (-1 when the configuration has no
	// such PE).
	choices []sched.PlatformChoice
	// funcs holds the resolved kernel of each platform entry,
	// index-aligned with choices — the paper's parse-time dlsym pass.
	funcs []kernels.Func
	// choiceByType maps a configuration type index to the first
	// supporting entry of choices, or -1: the dispatch-time
	// replacement for PlatformFor's key-string scan.
	choiceByType []int32
	// meta is the indexed-scheduler metadata (compatible-class bitmask,
	// MET's best classes, per-class scaled costs, choice count) lowered
	// over the configuration's cost classes (platform.Config.Classes).
	// Lowered only when the configuration interns at most 64 classes;
	// past that the view is not Indexed and no policy reads it (the
	// zero value still rides along with every ready push).
	meta sched.ReadyMeta
	// dataBytes is the node's per-direction DMA volume
	// (AppSpec.DataBytes), precomputed.
	dataBytes int
}

// TaskCount reports the number of DAG nodes in the template.
func (p *Program) TaskCount() int { return len(p.nodes) }

// NodeID returns the dense ID of a node name, or -1 if absent; tests
// and tooling use it to index instantiated task slabs.
func (p *Program) NodeID(name string) int {
	// IDs are assigned in sorted-name order, so binary search suffices
	// and the Program carries no name map.
	lo, hi := 0, len(p.nodes)
	for lo < hi {
		mid := (lo + hi) / 2
		if p.nodes[mid].name < name {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(p.nodes) && p.nodes[lo].name == name {
		return lo
	}
	return -1
}

// Compile lowers an application archetype against a hardware
// configuration and kernel registry. It performs exactly the
// validation the paper's application handler does at parse time,
// failing fast on unknown runfunc symbols and on nodes that no PE of
// the configuration can execute.
func Compile(spec *appmodel.AppSpec, cfg *platform.Config, reg *kernels.Registry) (*Program, error) {
	if spec == nil {
		return nil, fmt.Errorf("core: compile of nil application spec")
	}
	names := make([]string, 0, len(spec.DAG))
	for name := range spec.DAG {
		names = append(names, name)
	}
	sort.Strings(names)
	ids := make(map[string]int32, len(names))
	for i, name := range names {
		ids[name] = int32(i)
	}

	p := &Program{
		Spec:  spec,
		nodes: make([]progNode, len(names)),
	}
	// Flat arenas for the per-node slices: one allocation each, with
	// the nodes holding sub-slices.
	totalSucc, totalPlat := 0, 0
	for _, name := range names {
		n := spec.DAG[name]
		totalSucc += len(n.Successors)
		totalPlat += len(n.Platforms)
	}
	succArena := make([]int32, 0, totalSucc)
	choiceArena := make([]sched.PlatformChoice, 0, totalPlat)
	funcArena := make([]kernels.Func, 0, totalPlat)
	typeArena := make([]int32, 0, len(names)*cfg.NumTypes())
	classes := cfg.Classes()
	var costArena []int64
	if len(classes) <= 64 {
		costArena = make([]int64, 0, len(names)*len(classes))
	}

	for i, name := range names {
		node := spec.DAG[name]
		pn := &p.nodes[i]
		pn.name = name
		pn.spec = node
		pn.preds = int32(len(node.Predecessors))
		pn.dataBytes = spec.DataBytes(name)

		start := len(succArena)
		for _, succ := range node.Successors {
			sid, ok := ids[succ]
			if !ok {
				return nil, fmt.Errorf("core: %s node %s lists unknown successor %q", spec.AppName, name, succ)
			}
			succArena = append(succArena, sid)
		}
		pn.succs = succArena[start:len(succArena):len(succArena)]

		cstart := len(choiceArena)
		supported := false
		for _, plat := range node.Platforms {
			so := plat.SharedObject
			if so == "" {
				so = spec.SharedObject
			}
			f, err := reg.Lookup(so, plat.RunFunc)
			if err != nil {
				return nil, fmt.Errorf("core: %s node %s: %w", spec.AppName, name, err)
			}
			typeID := cfg.TypeIndex(plat.Name)
			if typeID >= 0 {
				supported = true
			}
			choiceArena = append(choiceArena, sched.PlatformChoice{
				Key:    plat.Name,
				TypeID: typeID,
				CostNS: plat.CostNS,
			})
			funcArena = append(funcArena, f)
		}
		if !supported {
			return nil, fmt.Errorf("core: %s node %s supports no PE present in config %s",
				spec.AppName, name, cfg.Name)
		}
		pn.choices = choiceArena[cstart:len(choiceArena):len(choiceArena)]
		pn.funcs = funcArena[cstart:len(funcArena):len(funcArena)]

		tstart := len(typeArena)
		for t := 0; t < cfg.NumTypes(); t++ {
			typeArena = append(typeArena, -1)
		}
		pn.choiceByType = typeArena[tstart:len(typeArena):len(typeArena)]
		for ci, c := range pn.choices {
			// First entry wins, matching PlatformFor's scan order.
			if c.TypeID >= 0 && pn.choiceByType[c.TypeID] < 0 {
				pn.choiceByType[c.TypeID] = int32(ci)
			}
		}

		// Indexed-scheduler metadata, lowered over the configuration's
		// cost classes: the compatible-class bitmask, the per-class
		// scaled cost of the first matching choice (choiceByType is
		// exactly that first-match scan, and class speed is uniform by
		// construction, so this is costOn's arithmetic verbatim), and
		// MET's compiled best type expanded to its classes (the first
		// strict cost minimum over the choice list, mirroring
		// MET.Schedule's scan — a minimum on an absent platform leaves
		// the mask empty and the task waits, exactly as on the slice
		// path). sched.NewView interns the identical class partition
		// from the handler table, so the mask numbering cannot drift.
		if len(classes) <= 64 {
			cstart := len(costArena)
			for c, sig := range classes {
				ci := pn.choiceByType[sig.TypeIdx]
				cost := int64(0)
				if ci >= 0 {
					pn.meta.ClassMask |= 1 << uint(c)
					cost = int64(float64(pn.choices[ci].CostNS) * sig.Speed)
				}
				costArena = append(costArena, cost)
			}
			pn.meta.Costs = costArena[cstart:len(costArena):len(costArena)]
			bestType := int32(-1)
			var bestCost int64 = -1
			for _, c := range pn.choices {
				if bestCost < 0 || c.CostNS < bestCost {
					bestCost = c.CostNS
					bestType = int32(c.TypeID)
				}
			}
			if bestType >= 0 {
				for c, sig := range classes {
					if int32(sig.TypeIdx) == bestType {
						pn.meta.METMask |= 1 << uint(c)
					}
				}
			}
			pn.meta.NumChoices = int32(len(pn.choices))
		}

		if pn.preds == 0 {
			p.heads = append(p.heads, int32(i))
		}
	}
	if len(p.heads) == 0 {
		return nil, fmt.Errorf("core: %s: DAG has no head node (cyclic)", spec.AppName)
	}
	return p, nil
}

// programKey identifies a compiled template: templates are valid for
// exactly one (archetype, configuration, registry) triple, all
// compared by identity.
type programKey struct {
	spec *appmodel.AppSpec
	cfg  *platform.Config
	reg  *kernels.Registry
}

// ProgramCache memoises compiled templates so every arrival of every
// sweep cell that shares an archetype reuses one Program. It is safe
// for concurrent use; the cached side requires specs, configurations
// and registries to be treated as immutable once emulated (mutating a
// spec after its first Run would go unseen — build a fresh spec
// instead, as the test suite does).
type ProgramCache struct {
	mu sync.RWMutex
	m  map[programKey]*Program
}

// programCacheCap bounds the cache; experiment suites compile a few
// archetypes per configuration, so the cap exists only to keep
// pathological spec churn (generated DAGs, fuzzing) from pinning
// memory. Overflow resets the whole map: compilation is cheap relative
// to any eviction bookkeeping.
const programCacheCap = 256

// NewProgramCache returns an empty cache. Emulators fall back to a
// process-wide shared cache when Options.Programs is nil, so a private
// cache is only needed for isolation (tests, spec churn).
func NewProgramCache() *ProgramCache {
	return &ProgramCache{m: make(map[programKey]*Program)}
}

// sharedPrograms is the process-wide default template cache: all
// emulators and sweep workers share compiled templates keyed by
// (spec, config, registry) identity.
var sharedPrograms = NewProgramCache()

// Get returns the cached template for the triple, compiling it on the
// first request. Compile errors are not cached.
func (c *ProgramCache) Get(spec *appmodel.AppSpec, cfg *platform.Config, reg *kernels.Registry) (*Program, error) {
	k := programKey{spec: spec, cfg: cfg, reg: reg}
	c.mu.RLock()
	p := c.m[k]
	c.mu.RUnlock()
	if p != nil {
		return p, nil
	}
	// Compile outside the lock; a racing duplicate compile produces an
	// identical immutable Program, and the store below keeps whichever
	// lands first.
	p, err := Compile(spec, cfg, reg)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if prev, ok := c.m[k]; ok {
		return prev, nil
	}
	if len(c.m) >= programCacheCap {
		c.m = make(map[programKey]*Program)
	}
	c.m[k] = p
	return p, nil
}

// Len reports the number of cached templates (tests).
func (c *ProgramCache) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.m)
}
