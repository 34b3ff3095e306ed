package lang

import (
	"fmt"
	"strings"
)

// Format renders a parsed file back to canonical minilang text: one
// declaration or statement per line, tab indentation, `(0)` for the
// ignored if/while conditions and `[0]` for the ignored array indices.
// The returned map sends each printed line number (1-based) back to the
// source line of the construct printed there, so analysis positions
// obtained from the formatted text can be translated to positions in the
// original source. Every IR instruction position derives from a statement
// line (see lower.go), so mapping statement lines is sufficient.
//
// Format(Parse(Format(f))) is a fixed point: the canonical text reparses
// to an AST that formats to the same text.
func Format(f *File) (string, map[int]int) {
	p := &printer{lines: map[int]int{}}
	for _, cd := range f.Classes {
		p.class(cd)
	}
	for _, fd := range f.Funcs {
		p.fileFunc(fd)
	}
	return p.b.String(), p.lines
}

type printer struct {
	b     strings.Builder
	line  int         // last printed line number (1-based)
	lines map[int]int // printed line -> original source line
}

// emit writes one line at the given indent depth, recording the mapping to
// the construct's original source line (0 = no mapping, e.g. a closing
// brace).
func (p *printer) emit(orig, depth int, text string) {
	p.line++
	if orig != 0 {
		p.lines[p.line] = orig
	}
	for i := 0; i < depth; i++ {
		p.b.WriteByte('\t')
	}
	p.b.WriteString(text)
	p.b.WriteByte('\n')
}

func (p *printer) class(cd *ClassDecl) {
	head := "class " + cd.Name
	if cd.Super != "" {
		head += " extends " + cd.Super
	}
	p.emit(cd.Line, 0, head+" {")
	for _, fl := range cd.Fields {
		mods := ""
		if fl.Static {
			mods += "static "
		}
		if fl.Volatile {
			mods += "volatile "
		}
		p.emit(fl.Line, 1, mods+"field "+fl.Name+";")
	}
	for _, m := range cd.Methods {
		head := ""
		if m.Origin {
			head = "origin "
		}
		p.emit(m.Line, 1, fmt.Sprintf("%s%s(%s) {", head, m.Name, strings.Join(m.Params, ", ")))
		p.stmts(m.Body, 2)
		p.emit(0, 1, "}")
	}
	p.emit(0, 0, "}")
}

func (p *printer) fileFunc(fd *FuncDecl) {
	if fd.Name == "main" {
		p.emit(fd.Line, 0, "main {")
	} else {
		p.emit(fd.Line, 0, fmt.Sprintf("func %s(%s) {", fd.Name, strings.Join(fd.Params, ", ")))
	}
	p.stmts(fd.Body, 1)
	p.emit(0, 0, "}")
}

func (p *printer) stmts(body []Stmt, depth int) {
	for _, s := range body {
		p.stmt(s, depth)
	}
}

func (p *printer) stmt(s Stmt, depth int) {
	switch st := s.(type) {
	case *AssignStmt:
		p.emit(st.Line, depth, lvalue(st.Lhs)+" = "+expr(st.Rhs)+";")
	case *CallStmt:
		if st.Call.Method == "$super" {
			p.emit(st.Line, depth, "super"+argList(st.Call.Args)+";")
			return
		}
		p.emit(st.Line, depth, expr(st.Call)+";")
	case *SyncStmt:
		p.emit(st.Line, depth, "sync ("+st.Obj+") {")
		p.stmts(st.Body, depth+1)
		p.emit(0, depth, "}")
	case *IfStmt:
		p.emit(st.Line, depth, "if (0) {")
		p.stmts(st.Then, depth+1)
		if len(st.Else) > 0 {
			p.emit(0, depth, "} else {")
			p.stmts(st.Else, depth+1)
		}
		p.emit(0, depth, "}")
	case *WhileStmt:
		p.emit(st.Line, depth, "while (0) {")
		p.stmts(st.Body, depth+1)
		p.emit(0, depth, "}")
	case *SelectStmt:
		p.emit(st.Line, depth, "select {")
		for _, arm := range st.Arms {
			if arm.Send {
				p.emit(arm.Line, depth, "send("+arm.Ch+", "+expr(arm.Val)+") {")
			} else {
				p.emit(arm.Line, depth, "recv("+arm.Ch+") {")
			}
			p.stmts(arm.Body, depth+1)
			p.emit(0, depth, "}")
		}
		if st.HasDefault {
			p.emit(0, depth, "default {")
			p.stmts(st.Default, depth+1)
			p.emit(0, depth, "}")
		}
		p.emit(0, depth, "}")
	case *ReturnStmt:
		if st.Val == nil {
			p.emit(st.Line, depth, "return;")
		} else {
			p.emit(st.Line, depth, "return "+expr(st.Val)+";")
		}
	default:
		panic(fmt.Sprintf("lang.Format: unknown statement %T", s))
	}
}

func lvalue(lv LValue) string {
	switch v := lv.(type) {
	case VarRef:
		return v.Name
	case FieldRef:
		return v.Base + "." + v.Field
	case IndexRef:
		return v.Base + "[0]"
	case StaticRef:
		return v.Class + "." + v.Field
	}
	panic(fmt.Sprintf("lang.Format: unknown lvalue %T", lv))
}

func expr(e Expr) string {
	switch v := e.(type) {
	case VarRef:
		return v.Name
	case FieldRef:
		return v.Base + "." + v.Field
	case IndexRef:
		return v.Base + "[0]"
	case StaticRef:
		return v.Class + "." + v.Field
	case *NewExpr:
		return "new " + v.Class + argList(v.Args)
	case *CallExpr:
		if v.Recv != "" {
			return v.Recv + "." + v.Method + argList(v.Args)
		}
		return v.Method + argList(v.Args)
	case FuncAddrExpr:
		return "&" + v.Name
	case NullLit:
		return "null"
	case IntLit:
		return v.Text
	}
	panic(fmt.Sprintf("lang.Format: unknown expression %T", e))
}

func argList(args []Expr) string {
	parts := make([]string, len(args))
	for i, a := range args {
		parts[i] = expr(a)
	}
	return "(" + strings.Join(parts, ", ") + ")"
}
