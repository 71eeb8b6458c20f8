package analysis

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"go/types"
	"reflect"
)

// Facts are how repolint's analyzers become interprocedural: an
// analyzer running over package P may attach a fact to one of P's
// objects (a function, a package-level var, a struct field), and every
// later pass over a package that imports P can read it back. This
// mirrors the golang.org/x/tools go/analysis Facts design, with one
// structural difference forced by the offline loader:
// each target package is type-checked in its own importer universe
// (see internal/lint/load.go), so a types.Object for sched.View seen
// from core is a different Go value than the one seen while analyzing
// sched itself. Object identity therefore cannot key the store.
// Instead every fact is addressed by (package path, object key) — the
// object key is a stable textual path ("F" for a package-level object,
// "T.M" for a method, "T.f" for a struct field) — and the fact value
// itself round-trips through gob on every export/import. The encoded
// blobs sit alongside the export-data table the loader already keeps
// per package, so facts survive exactly as long as the export data
// they describe and a future on-disk fact cache only needs to write
// the blobs next to the .a files.

// Fact is a marker interface for analyzer fact types. Implementations
// must be pointer-to-struct with exported fields (gob round-trips
// them) and should be declared alongside the analyzer that owns them.
type Fact interface{ AFact() }

// FactStore holds every fact exported during one driver run, keyed by
// package path + object key + concrete fact type. A single store is
// shared by all analyzers of a run (fact types disambiguate), and the
// linttest harness threads one through multi-package fixtures to prove
// facts cross package boundaries.
type FactStore struct {
	objects map[factKey][]byte

	// fieldKeys caches, per types.Package *instance* (universes are
	// per-target, see above), the struct-field -> "T.f" key index.
	fieldKeys map[*types.Package]map[types.Object]string
}

type factKey struct {
	pkg    string // package path, test-variant suffix stripped
	object string // object key within the package ("F", "T.M", "T.f")
	typ    string // concrete fact type name
}

// NewFactStore returns an empty store.
func NewFactStore() *FactStore {
	return &FactStore{
		objects:   map[factKey][]byte{},
		fieldKeys: map[*types.Package]map[types.Object]string{},
	}
}

// Bind wires the pass's fact accessors to the store. basePath is the
// import path facts exported by this pass are filed under (the pass
// package's path with any " [p.test]" variant suffix stripped, so the
// test-augmented variant of a package shares its facts with the plain
// one its importers see).
func (s *FactStore) Bind(pass *Pass, basePath string) {
	pass.ExportObjectFact = func(obj types.Object, fact Fact) {
		if obj == nil || obj.Pkg() == nil {
			panic("ExportObjectFact: object without a package")
		}
		if obj.Pkg() != pass.Pkg {
			panic(fmt.Sprintf("ExportObjectFact: %s is not from the package under analysis (%s)", obj, pass.Pkg.Path()))
		}
		key, ok := s.objectKey(obj)
		if !ok {
			panic(fmt.Sprintf("ExportObjectFact: %s has no stable object key (local objects cannot carry facts)", obj))
		}
		s.objects[factKey{basePath, key, factType(fact)}] = encodeFact(fact)
	}
	pass.ImportObjectFact = func(obj types.Object, fact Fact) bool {
		if obj == nil || obj.Pkg() == nil {
			return false
		}
		key, ok := s.objectKey(obj)
		if !ok {
			return false
		}
		blob, ok := s.objects[factKey{obj.Pkg().Path(), key, factType(fact)}]
		if !ok {
			return false
		}
		decodeFact(blob, fact)
		return true
	}
}

// ObjectFact decodes the fact of the given concrete type attached to
// the object addressed by (pkgPath, objectKey) — objectKey follows the
// textual scheme above ("F", "T.M", "T.f"). Post-run consumers and
// tests use it to probe the store without a types.Object in hand.
func (s *FactStore) ObjectFact(pkgPath, objectKey string, fact Fact) bool {
	blob, ok := s.objects[factKey{pkgPath, objectKey, factType(fact)}]
	if !ok {
		return false
	}
	decodeFact(blob, fact)
	return true
}

// objectKey computes the stable textual address of obj within its
// package: "N" for package-scope objects, "T.M" for methods, "T.f"
// for fields of package-level named struct types. Local objects (and
// fields of anonymous types) have no key and cannot carry facts.
func (s *FactStore) objectKey(obj types.Object) (string, bool) {
	switch o := obj.(type) {
	case *types.Func:
		sig, ok := o.Type().(*types.Signature)
		if !ok {
			return "", false
		}
		if recv := sig.Recv(); recv != nil {
			named, ok := types.Unalias(derefType(recv.Type())).(*types.Named)
			if !ok {
				return "", false
			}
			return named.Obj().Name() + "." + o.Name(), true
		}
		if o.Parent() == o.Pkg().Scope() {
			return o.Name(), true
		}
		return "", false
	case *types.Var:
		if o.IsField() {
			key, ok := s.fieldIndex(o.Pkg())[o]
			return key, ok
		}
		if o.Parent() == o.Pkg().Scope() {
			return o.Name(), true
		}
		return "", false
	case *types.TypeName, *types.Const:
		if obj.Parent() == obj.Pkg().Scope() {
			return obj.Name(), true
		}
		return "", false
	}
	return "", false
}

// fieldIndex builds (once per package instance) the field-object ->
// "T.f" map over the package's exported scope: every named type whose
// underlying is a struct contributes its direct fields.
func (s *FactStore) fieldIndex(pkg *types.Package) map[types.Object]string {
	if idx, ok := s.fieldKeys[pkg]; ok {
		return idx
	}
	idx := map[types.Object]string{}
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		named, ok := types.Unalias(tn.Type()).(*types.Named)
		if !ok {
			continue
		}
		st, ok := named.Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			idx[f] = name + "." + f.Name()
		}
	}
	s.fieldKeys[pkg] = idx
	return idx
}

func derefType(t types.Type) types.Type {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// factType names a fact's concrete type; the pointer is stripped so
// &TaintFact{} and TaintFact{} address the same entry.
func factType(fact Fact) string {
	t := reflect.TypeOf(fact)
	for t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	return t.PkgPath() + "." + t.Name()
}

// encodeFact/decodeFact round-trip the fact through gob. The encode on
// every export (not just at an eventual cache write) is deliberate: it
// proves each fact is position-independent serializable data, exactly
// what an on-disk cache alongside the export data would persist.
func encodeFact(fact Fact) []byte {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(fact); err != nil {
		panic(fmt.Sprintf("analysis: encoding fact %T: %v", fact, err))
	}
	return buf.Bytes()
}

func decodeFact(blob []byte, fact Fact) {
	// gob leaves zero-valued fields untouched on decode; zero the
	// destination first so importing into a reused fact value never
	// merges two facts.
	if v := reflect.ValueOf(fact); v.Kind() == reflect.Pointer {
		v.Elem().Set(reflect.Zero(v.Elem().Type()))
	}
	if err := gob.NewDecoder(bytes.NewReader(blob)).Decode(fact); err != nil {
		panic(fmt.Sprintf("analysis: decoding fact %T: %v", fact, err))
	}
}
