package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"reflect"
	"sort"

	"repro/internal/stats"
)

// digest is a SHA-256 over the *typed* simulated statistics of a pass —
// integers and float bit patterns written in a fixed order, never
// rendered text or serialised bytes — so it moves exactly when the
// simulation does. A change that only speeds the host up must leave it
// identical; the harness compares it across passes, between traced and
// untraced passes, and (default seed) against expected/digests.json.
type digest struct{ h hash.Hash }

func newDigest() *digest { return &digest{h: sha256.New()} }

func (d *digest) i64(xs ...int64) {
	var b [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(b[:], uint64(x))
		d.h.Write(b[:])
	}
}

func (d *digest) f64(xs ...float64) {
	for _, x := range xs {
		d.i64(int64(math.Float64bits(x)))
	}
}

func (d *digest) str(s string) {
	d.i64(int64(len(s)))
	d.h.Write([]byte(s))
}

func (d *digest) flag(b bool) {
	if b {
		d.i64(1)
	} else {
		d.i64(0)
	}
}

// report folds one emulation: the report's aggregate fields and, when the
// run streamed into an Online sink, its counts and p50/p99. It returns the
// task count it read there, which is what tasks_per_s counts.
func (d *digest) report(r *stats.Report, o *stats.Online) (tasks int64) {
	tasks, apps := int64(len(r.Tasks)), int64(len(r.Apps))
	if o != nil {
		tasks, apps = o.TasksSeen, o.AppsSeen
		d.f64(o.Wait.Quantile(0.50), o.Wait.Quantile(0.99),
			o.Response.Quantile(0.50), o.Response.Quantile(0.99))
	}
	d.i64(int64(r.Makespan), tasks, apps,
		int64(r.Sched.Invocations), r.Sched.TotalOps, int64(r.Sched.MaxReadyLen),
		r.PlatEvents, r.Requeues)
	d.f64(r.TotalEnergyJ())
	return tasks
}

func (d *digest) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }

// value folds any result — structs, slices, maps in key order, numbers,
// strings — field by field, so the digest covers the typed cell results and
// experiment point structs and not a rendering of them.
func (d *digest) value(v reflect.Value) {
	switch v.Kind() {
	case reflect.Pointer, reflect.Interface:
		if !v.IsNil() {
			d.value(v.Elem())
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			d.value(v.Field(i))
		}
	case reflect.Slice, reflect.Array:
		d.i64(int64(v.Len()))
		for i := 0; i < v.Len(); i++ {
			d.value(v.Index(i))
		}
	case reflect.Map:
		keys := v.MapKeys()
		sort.Slice(keys, func(i, j int) bool { return keys[i].String() < keys[j].String() })
		d.i64(int64(len(keys)))
		for _, k := range keys {
			d.value(k)
			d.value(v.MapIndex(k))
		}
	case reflect.String:
		d.str(v.String())
	case reflect.Bool:
		d.flag(v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		d.i64(v.Int())
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		d.i64(int64(v.Uint()))
	case reflect.Float32, reflect.Float64:
		d.f64(v.Float())
	default:
		panic(fmt.Sprintf("benchmark: digest cannot fold a %s", v.Kind()))
	}
}
