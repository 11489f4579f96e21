package ir

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// ParseTextScanner is the line-at-a-time parser ParseText replaced, kept
// as a reference: it reads through a bufio.Scanner (one string per line,
// lines up to 4 MiB), resolves operands through a map and allocates each
// op on its own. FuzzParseText checks that ParseText accepts exactly the
// inputs it accepts and writes back the same text.
func ParseTextScanner(r io.Reader) (*Module, error) {
	sc := bufio.NewScanner(r)
	// The buffer grows from nil as lines need it, up to a 4 MiB line.
	sc.Buffer(nil, 1<<22)
	var m *Module
	var f *Function
	opByID := make(map[int]*Op)
	loopByID := make(map[int]*Loop)
	type loopFix struct {
		loop   *Loop
		parent int
	}
	var loopFixes []loopFix
	type calleeFix struct {
		f     *Function
		names []string
	}
	var calleeFixes []calleeFix
	var fields []string // reused by every line
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields = appendFields(fields[:0], line)
		switch {
		case fields[0] == "module":
			if len(fields) != 2 {
				return nil, fmt.Errorf("ir: line %d: malformed module header", lineNo)
			}
			if m != nil {
				return nil, fmt.Errorf("ir: line %d: second module header", lineNo)
			}
			m = NewModule(fields[1])
		case fields[0] == "func":
			if m == nil {
				return nil, fmt.Errorf("ir: line %d: func before module", lineNo)
			}
			if len(fields) < 2 {
				return nil, fmt.Errorf("ir: line %d: func without a name", lineNo)
			}
			if m.FuncByName(fields[1]) != nil {
				return nil, fmt.Errorf("ir: line %d: duplicate func %q", lineNo, fields[1])
			}
			f = m.NewFunction(fields[1])
			for _, tok := range fields[2:] {
				switch {
				case tok == "top":
					m.SetTop(f)
				case strings.HasPrefix(tok, "calls="):
					// Callees can be declared later in the text; resolve
					// after the whole module is parsed.
					calleeFixes = append(calleeFixes, calleeFix{f, strings.Split(tok[6:], ",")})
				default:
					return nil, fmt.Errorf("ir: line %d: bad func attr %q", lineNo, tok)
				}
			}
		case fields[0] == "array":
			if f == nil {
				return nil, fmt.Errorf("ir: line %d: array outside func", lineNo)
			}
			if len(fields) < 2 {
				return nil, fmt.Errorf("ir: line %d: array without a name", lineNo)
			}
			a := &Array{Name: fields[1], Func: f}
			for _, kv := range fields[2:] {
				k, v, ok := cutKV(kv)
				if !ok {
					return nil, fmt.Errorf("ir: line %d: bad array attr %q", lineNo, kv)
				}
				n, err := strconv.Atoi(v)
				if err != nil {
					return nil, fmt.Errorf("ir: line %d: %v", lineNo, err)
				}
				switch k {
				case "words":
					a.Words = n
				case "bits":
					a.Bits = n
				case "banks":
					a.Banks = n
				}
			}
			f.Arrays = append(f.Arrays, a)
		case fields[0] == "loop":
			if f == nil {
				return nil, fmt.Errorf("ir: line %d: loop outside func", lineNo)
			}
			if len(fields) < 3 {
				return nil, fmt.Errorf("ir: line %d: loop needs an ID and a name", lineNo)
			}
			id, err := strconv.Atoi(fields[1])
			if err != nil {
				return nil, fmt.Errorf("ir: line %d: %v", lineNo, err)
			}
			if _, dup := loopByID[id]; dup {
				return nil, fmt.Errorf("ir: line %d: duplicate loop %d", lineNo, id)
			}
			l := &Loop{ID: id, Name: fields[2], Unroll: 1, Func: f}
			parent := -1
			for _, kv := range fields[3:] {
				if kv == "pipeline" {
					l.Pipelined = true
					continue
				}
				k, v, ok := cutKV(kv)
				if !ok {
					return nil, fmt.Errorf("ir: line %d: bad loop attr %q", lineNo, kv)
				}
				n, err := strconv.Atoi(v)
				if err != nil {
					return nil, fmt.Errorf("ir: line %d: %v", lineNo, err)
				}
				switch k {
				case "trips":
					l.TripCount = n
				case "unroll":
					l.Unroll = n
				case "ii":
					l.II = n
				case "parent":
					parent = n
				}
			}
			f.Loops = append(f.Loops, l)
			loopByID[l.ID] = l
			loopFixes = append(loopFixes, loopFix{l, parent})
			if l.ID >= m.nextLoopID {
				m.nextLoopID = l.ID + 1
			}
		case strings.HasPrefix(fields[0], "%"):
			if f == nil {
				return nil, fmt.Errorf("ir: line %d: op outside func", lineNo)
			}
			o, err := parseOpScanner(m, f, fields, opByID, loopByID)
			if err != nil {
				return nil, fmt.Errorf("ir: line %d: %w", lineNo, err)
			}
			opByID[o.ID] = o
		default:
			return nil, fmt.Errorf("ir: line %d: unrecognized directive %q", lineNo, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if m == nil {
		return nil, fmt.Errorf("ir: empty input")
	}
	for _, fix := range loopFixes {
		if fix.parent >= 0 {
			p, ok := loopByID[fix.parent]
			if !ok {
				return nil, fmt.Errorf("ir: loop %d references unknown parent %d", fix.loop.ID, fix.parent)
			}
			if p.Func != fix.loop.Func {
				return nil, fmt.Errorf("ir: loop %d has parent %d in another function", fix.loop.ID, fix.parent)
			}
			fix.loop.Parent = p
			p.Kids = append(p.Kids, fix.loop)
		}
	}
	// A cycle of parents would never end the walks up Loop.Parent that
	// schedule and bind make. Each loop is walked once: 1 marks the loops
	// of the current walk, 2 those already known to reach a root.
	state := make(map[*Loop]uint8, len(loopFixes))
	for _, fix := range loopFixes {
		l, walk := fix.loop, []*Loop(nil)
		for ; l != nil && state[l] == 0; l = l.Parent {
			state[l] = 1
			walk = append(walk, l)
		}
		if l != nil && state[l] == 1 {
			return nil, fmt.Errorf("ir: loop %d is its own ancestor", l.ID)
		}
		for _, w := range walk {
			state[w] = 2
		}
	}
	// Every per-op table (OpTable) is sized by the largest op ID, so a few
	// bytes of text must not name an ID far past the ops they declare.
	if n := m.NumOps(); m.nextOpID > 4*n+1024 {
		return nil, fmt.Errorf("ir: op IDs up to %d for %d ops are too sparse", m.nextOpID-1, n)
	}
	funcByName := make(map[string]*Function, len(m.Funcs))
	for _, fn := range m.Funcs {
		funcByName[fn.Name] = fn
	}
	for _, fix := range calleeFixes {
		for _, name := range fix.names {
			cf, ok := funcByName[name]
			if !ok {
				return nil, fmt.Errorf("ir: func %s calls unknown function %q", fix.f.Name, name)
			}
			fix.f.Callees = append(fix.f.Callees, cf)
		}
	}
	if err := Validate(m); err != nil {
		return nil, fmt.Errorf("ir: parsed module invalid: %w", err)
	}
	return m, nil
}

func parseOpScanner(m *Module, f *Function, fields []string, opByID map[int]*Op, loopByID map[int]*Loop) (*Op, error) {
	// %ID = kind ["name"] iW [mem=a] [%op[:bits]...] [@file:line] [loop=N] [replica=R/I]
	id, err := strconv.Atoi(strings.TrimPrefix(fields[0], "%"))
	if err != nil || id < 0 || len(fields) < 4 || fields[1] != "=" {
		return nil, fmt.Errorf("malformed op header")
	}
	kind := kindOfName[fields[2]]
	if !kind.Valid() {
		return nil, fmt.Errorf("unknown op kind %q", fields[2])
	}
	o := &Op{ID: id, Kind: kind, Func: f, ReplicaOf: -1}
	rest := fields[3:]
	if len(rest) == 0 || !strings.HasPrefix(rest[0], "\"") {
		o.Name = defaultOpName(kind, id)
	} else {
		name, ok := unquoteName(rest[0])
		if !ok {
			return nil, fmt.Errorf("bad op name %s", rest[0])
		}
		o.Name = name
		rest = rest[1:]
	}
	if len(rest) == 0 || !strings.HasPrefix(rest[0], "i") {
		return nil, fmt.Errorf("missing bitwidth")
	}
	w, err := strconv.Atoi(rest[0][1:])
	if err != nil {
		return nil, fmt.Errorf("bad bitwidth %q", rest[0])
	}
	o.Bitwidth = w
	operands := 0
	for _, tok := range rest[1:] {
		if strings.HasPrefix(tok, "%") {
			operands++
		}
	}
	if operands > 0 {
		o.Operands = make([]Operand, 0, operands)
	}
	for _, tok := range rest[1:] {
		switch {
		case strings.HasPrefix(tok, "mem="):
			name := tok[4:]
			for _, a := range f.Arrays {
				if a.Name == name {
					o.Array = a
				}
			}
			if o.Array == nil {
				return nil, fmt.Errorf("unknown array %q", name)
			}
		case strings.HasPrefix(tok, "%"):
			spec := tok[1:]
			bits := -1
			if c := strings.IndexByte(spec, ':'); c >= 0 {
				bits, err = strconv.Atoi(spec[c+1:])
				if err != nil {
					return nil, fmt.Errorf("bad operand tap %q", tok)
				}
				spec = spec[:c]
			}
			did, err := strconv.Atoi(spec)
			if err != nil {
				return nil, fmt.Errorf("bad operand %q", tok)
			}
			def, ok := opByID[did]
			if !ok {
				return nil, fmt.Errorf("operand %%%d not yet defined", did)
			}
			if bits < 0 {
				bits = def.Bitwidth
			}
			o.Operands = append(o.Operands, Operand{Def: def, Bits: bits})
			def.users = append(def.users, o)
		case strings.HasPrefix(tok, "@"):
			loc := tok[1:]
			c := strings.LastIndexByte(loc, ':')
			if c < 0 {
				return nil, fmt.Errorf("bad source loc %q", tok)
			}
			ln, err := strconv.Atoi(loc[c+1:])
			if err != nil {
				return nil, fmt.Errorf("bad source line %q", tok)
			}
			o.Src = SourceLoc{File: loc[:c], Line: ln}
		case strings.HasPrefix(tok, "loop="):
			lid, err := strconv.Atoi(tok[5:])
			if err != nil {
				return nil, fmt.Errorf("bad loop ref %q", tok)
			}
			l, ok := loopByID[lid]
			if !ok || l.Func != f {
				return nil, fmt.Errorf("unknown loop %d", lid)
			}
			o.Loop = l
		case strings.HasPrefix(tok, "replica="):
			r, i, ok := strings.Cut(tok[8:], "/")
			root, err1 := strconv.Atoi(r)
			idx, err2 := strconv.Atoi(i)
			if !ok || err1 != nil || err2 != nil {
				return nil, fmt.Errorf("bad replica mark %q", tok)
			}
			o.ReplicaOf = root
			o.ReplicaIdx = idx
		default:
			return nil, fmt.Errorf("unrecognized token %q", tok)
		}
	}
	f.Ops = append(f.Ops, o)
	if id >= m.nextOpID {
		m.nextOpID = id + 1
	}
	return o, nil
}
