package analysis

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// Role is an invariant role a declaration opts into with a
// //racelint:<role> directive.
type Role string

const (
	// RoleCow marks a type whose values, once published to readers, are
	// copy-on-write: no field assignment, element write, or delete may
	// go through them outside RoleCowSafe functions (cowalias).
	RoleCow Role = "cow"
	// RoleCowSafe marks a function or method designated to construct or
	// mutate RoleCow values before they are published (constructors,
	// Grow-style COW helpers).
	RoleCowSafe Role = "cowsafe"
	// RoleJournal marks a function that appends a mutation to the
	// write-ahead log.  journalfirst requires one of these calls before
	// any publication in the same function.
	RoleJournal Role = "journal"
	// RolePublisher marks a function allowed to touch a RolePublished
	// field directly (the designated publication point, construction,
	// and recovery paths).  Publisher calls are what journalfirst
	// orders after journal appends; publishers are also exempt from
	// singlecut's one-Load rule (CAS retry loops reload by design).
	RolePublisher Role = "publisher"
	// RolePublished marks an atomic field holding the reader-visible
	// state (the database view).  Store/CompareAndSwap through it
	// outside publishers and repeated Load within one function are
	// diagnostics (journalfirst, singlecut).
	RolePublished Role = "published"
)

var validRoles = map[Role]bool{
	RoleCow:       true,
	RoleCowSafe:   true,
	RoleJournal:   true,
	RolePublisher: true,
	RolePublished: true,
}

// Marks is the suite's fact table: declaration keys (see ObjKey) to
// the roles their directives grant.  It is safe for concurrent reads
// after construction.
type Marks struct {
	m map[string]map[Role]bool
}

// NewMarks returns an empty table.
func NewMarks() *Marks { return &Marks{m: make(map[string]map[Role]bool)} }

// Add grants key the role.
func (m *Marks) Add(key string, role Role) {
	set := m.m[key]
	if set == nil {
		set = make(map[Role]bool)
		m.m[key] = set
	}
	set[role] = true
}

// Has reports whether key holds the role.
func (m *Marks) Has(key string, role Role) bool {
	return key != "" && m.m[key][role]
}

// HasObj reports whether the declaration behind obj holds the role.
func (m *Marks) HasObj(obj types.Object, role Role) bool {
	return m.Has(ObjKey(obj), role)
}

// Merge folds other's marks into m.
func (m *Marks) Merge(other *Marks) {
	if other == nil {
		return
	}
	for key, roles := range other.m {
		set := m.m[key]
		if set == nil {
			set = make(map[Role]bool, len(roles))
			m.m[key] = set
		}
		for role := range roles {
			set[role] = true
		}
	}
}

// MarshalJSON serializes the table deterministically — it is the
// payload of the .vetx fact files the vettool mode exchanges between
// package units.
func (m *Marks) MarshalJSON() ([]byte, error) {
	out := make(map[string][]string, len(m.m))
	for key, roles := range m.m {
		rs := make([]string, 0, len(roles))
		for role := range roles {
			rs = append(rs, string(role))
		}
		sort.Strings(rs)
		out[key] = rs
	}
	return json.Marshal(out)
}

// UnmarshalJSON merges a serialized table into m.
func (m *Marks) UnmarshalJSON(data []byte) error {
	if m.m == nil {
		m.m = make(map[string]map[Role]bool)
	}
	var in map[string][]string
	if err := json.Unmarshal(data, &in); err != nil {
		return err
	}
	for key, roles := range in {
		set := m.m[key]
		if set == nil {
			set = make(map[Role]bool, len(roles))
			m.m[key] = set
		}
		for _, role := range roles {
			set[Role(role)] = true
		}
	}
	return nil
}

// ObjKey is the mark-table key of a types object: "pkg.Name" for
// package-level functions and types, "pkg.Recv.Name" for methods.
// Objects without a package (builtins, locals of universe scope) key
// to "".
func ObjKey(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	if fn, ok := obj.(*types.Func); ok {
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
			n := Named(sig.Recv().Type())
			if n == nil {
				return ""
			}
			return fmt.Sprintf("%s.%s.%s", obj.Pkg().Path(), n.Obj().Name(), fn.Name())
		}
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// FieldKey is the mark-table key of a struct field:
// "pkg.Struct.Field".  owner is the named type the selector's base
// expression resolves to.
func FieldKey(owner *types.Named, field string) string {
	if owner == nil || owner.Obj().Pkg() == nil {
		return ""
	}
	return fmt.Sprintf("%s.%s.%s", owner.Obj().Pkg().Path(), owner.Obj().Name(), field)
}

// directiveRoles extracts the racelint roles named by a comment group.
// CommentGroup.Text cannot be used: it strips directive-style comments,
// which is exactly what //racelint:cow is.
func directiveRoles(groups ...*ast.CommentGroup) ([]Role, error) {
	var roles []Role
	for _, g := range groups {
		if g == nil {
			continue
		}
		for _, c := range g.List {
			text := strings.TrimPrefix(c.Text, "//")
			if !strings.HasPrefix(text, "racelint:") {
				continue
			}
			name, _, _ := strings.Cut(strings.TrimPrefix(text, "racelint:"), " ")
			role := Role(strings.TrimSpace(name))
			if !validRoles[role] {
				return nil, fmt.Errorf("unknown racelint directive %q", c.Text)
			}
			roles = append(roles, role)
		}
	}
	return roles, nil
}

// recvTypeName extracts the receiver type identifier of a method
// declaration: "T" from (t T), (t *T), or their generic forms.
func recvTypeName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return ""
	}
	t := fd.Recv.List[0].Type
	for {
		switch tt := t.(type) {
		case *ast.StarExpr:
			t = tt.X
		case *ast.IndexExpr:
			t = tt.X
		case *ast.IndexListExpr:
			t = tt.X
		case *ast.Ident:
			return tt.Name
		default:
			return ""
		}
	}
}

// CollectMarks scans a package's syntax for //racelint:* directives on
// function, type, and struct-field declarations and returns the
// resulting table.  An unknown role is an error: a typo'd directive
// silently granting nothing would erode the invariants the suite
// exists to keep.
func CollectMarks(pkgPath string, files []*ast.File) (*Marks, error) {
	marks := NewMarks()
	addAll := func(key string, roles []Role) {
		for _, role := range roles {
			marks.Add(key, role)
		}
	}
	for _, f := range files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				roles, err := directiveRoles(d.Doc)
				if err != nil {
					return nil, err
				}
				key := pkgPath + "." + d.Name.Name
				if recv := recvTypeName(d); recv != "" {
					key = fmt.Sprintf("%s.%s.%s", pkgPath, recv, d.Name.Name)
				}
				addAll(key, roles)
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					roles, err := directiveRoles(d.Doc, ts.Doc, ts.Comment)
					if err != nil {
						return nil, err
					}
					addAll(pkgPath+"."+ts.Name.Name, roles)
					st, ok := ts.Type.(*ast.StructType)
					if !ok {
						continue
					}
					for _, field := range st.Fields.List {
						froles, err := directiveRoles(field.Doc, field.Comment)
						if err != nil {
							return nil, err
						}
						if len(froles) == 0 {
							continue
						}
						for _, name := range field.Names {
							addAll(fmt.Sprintf("%s.%s.%s", pkgPath, ts.Name.Name, name.Name), froles)
						}
					}
				}
			}
		}
	}
	return marks, nil
}
