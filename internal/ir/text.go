package ir

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"unicode/utf8"
)

// Textual IR: a line-oriented, human-readable serialization of a module,
// good enough to diff designs, store regression inputs, and move designs
// between tools. WriteText and ParseText round-trip every structural
// property the flow consumes (ops, operand taps, arrays, loops, source
// locations, replica marks, call-graph edges, non-default op names); op
// IDs are preserved.
//
// Format sketch:
//
//	module face_detection
//	func face_detect top calls=filter_pixel
//	  array window_buf words=64 bits=8 banks=64
//	  loop 0 scan_windows trips=40000 unroll=4 pipeline ii=2 parent=-1
//	  %3 = port "img_in" i32 @face_detect.cpp:12
//	  %7 = add i16 %3:16, %5 @face_detect.cpp:78 loop=0 replica=3/1
//	  %9 = load i8 mem=window_buf %8 @face_detect.cpp:60
//	  %12 = call "call_filter_pixel" i16 %9

// WriteText serializes the module's functions.
func WriteText(w io.Writer, m *Module) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "module %s\n", m.Name)
	for _, f := range m.LiveFuncs() {
		role := ""
		if f.IsTop {
			role = " top"
		}
		if len(f.Callees) > 0 {
			callees := make([]string, len(f.Callees))
			for i, cf := range f.Callees {
				callees[i] = cf.Name
			}
			role += " calls=" + strings.Join(callees, ",")
		}
		fmt.Fprintf(bw, "func %s%s\n", f.Name, role)
		for _, a := range f.Arrays {
			fmt.Fprintf(bw, "  array %s words=%d bits=%d banks=%d\n", a.Name, a.Words, a.Bits, a.Banks)
		}
		loops := append([]*Loop(nil), f.Loops...)
		sort.Slice(loops, func(i, j int) bool { return loops[i].ID < loops[j].ID })
		for _, l := range loops {
			parent := -1
			if l.Parent != nil {
				parent = l.Parent.ID
			}
			attrs := fmt.Sprintf("trips=%d unroll=%d parent=%d", l.TripCount, l.Unroll, parent)
			if l.Pipelined {
				attrs += fmt.Sprintf(" pipeline ii=%d", l.II)
			}
			fmt.Fprintf(bw, "  loop %d %s %s\n", l.ID, l.Name, attrs)
		}
		for _, o := range f.Ops {
			if err := writeOp(bw, o); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

func writeOp(bw *bufio.Writer, o *Op) error {
	var sb strings.Builder
	fmt.Fprintf(&sb, "  %%%d = %s", o.ID, o.Kind)
	// Names are only written when they carry information: ports always (the
	// port name is the external interface), other ops when the name differs
	// from the kind_id default the parser would regenerate. Call ops depend
	// on this — rtl resolves the callee through the "call_<name>" op name.
	if o.Kind == KindPort || o.Name != defaultOpName(o.Kind, o.ID) {
		fmt.Fprintf(&sb, " %q", o.Name)
	}
	fmt.Fprintf(&sb, " i%d", o.Bitwidth)
	if o.Array != nil {
		fmt.Fprintf(&sb, " mem=%s", o.Array.Name)
	}
	for _, e := range o.Operands {
		if e.Bits != e.Def.Bitwidth {
			fmt.Fprintf(&sb, " %%%d:%d", e.Def.ID, e.Bits)
		} else {
			fmt.Fprintf(&sb, " %%%d", e.Def.ID)
		}
	}
	if !o.Src.IsZero() {
		fmt.Fprintf(&sb, " @%s:%d", o.Src.File, o.Src.Line)
	}
	if o.Loop != nil {
		fmt.Fprintf(&sb, " loop=%d", o.Loop.ID)
	}
	if o.IsReplica() {
		fmt.Fprintf(&sb, " replica=%d/%d", o.ReplicaOf, o.ReplicaIdx)
	}
	sb.WriteByte('\n')
	_, err := bw.WriteString(sb.String())
	return err
}

// ParseText reconstructs a module from WriteText output. The result passes
// Validate and preserves op IDs, so provenance stays stable across a
// round-trip.
//
// The input is read once into one string and every line, name and file is
// a slice of it. The ops come from one slab and their operands from
// another, both sized by a first pass over the lines, and operands resolve
// through a dense index by op ID, so a parse allocates per structure, not
// per line or per op. A line of 4 MiB or more is an error.
func ParseText(r io.Reader) (*Module, error) {
	text, err := readText(r)
	if err != nil {
		return nil, err
	}
	tp := newTextParser(text)
	var m *Module
	var f *Function
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
	for rest := text; rest != ""; {
		var line string
		line, rest = nextLine(rest)
		lineNo++
		if len(line) >= maxLine {
			return nil, fmt.Errorf("ir: line %d: longer than %d bytes", lineNo, maxLine-1)
		}
		line = strings.TrimSpace(line)
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
			o, err := tp.parseOp(m, f, fields, loopByID)
			if err != nil {
				return nil, fmt.Errorf("ir: line %d: %w", lineNo, err)
			}
			tp.setOp(o)
		default:
			return nil, fmt.Errorf("ir: line %d: unrecognized directive %q", lineNo, fields[0])
		}
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

// maxLine bounds one line of IR text: a line of maxLine bytes (4 MiB) or
// more is an error, as it is for a bufio.Scanner with a 4 MiB buffer.
const maxLine = 1 << 22

// readText reads all of r into one string. A reader that knows how many
// bytes it holds (strings.Reader, bytes.Reader, bytes.Buffer) fills a
// buffer of exactly that size, once.
func readText(r io.Reader) (string, error) {
	var sb strings.Builder
	if l, ok := r.(interface{ Len() int }); ok {
		sb.Grow(l.Len())
	}
	if _, err := io.Copy(&sb, r); err != nil {
		return "", err
	}
	return sb.String(), nil
}

// nextLine splits text at its first newline.
func nextLine(text string) (line, rest string) {
	if i := strings.IndexByte(text, '\n'); i >= 0 {
		return text[:i], text[i+1:]
	}
	return text, ""
}

// minOpLine is the length of the shortest op line that parses, "%0 = or
// i1"; a shorter line starting with '%' is an error, so it takes no slot.
const minOpLine = len("%0 = or i1")

// textParser holds the slabs and the op index of one ParseText call.
type textParser struct {
	ops      []Op      // slots not yet taken, one per op line
	operands []Operand // entries not yet taken, one per '%' after an op's own
	// byID[id] is the op parsed with id; IDs past len(byID), which a
	// module with dense IDs never has, go in far.
	byID []*Op
	far  map[int]*Op
}

// newTextParser sizes the slabs and the index by a first pass over the
// lines of text. Only lines of minOpLine bytes or more count, so the op
// slab holds at most one Op for every minOpLine bytes of input.
func newTextParser(text string) *textParser {
	nOps, nOperands := 0, 0
	for rest := text; rest != ""; {
		var line string
		line, rest = nextLine(rest)
		if line = strings.TrimSpace(line); len(line) >= minOpLine && line[0] == '%' {
			nOps++
			nOperands += strings.Count(line, "%") - 1
		}
	}
	return &textParser{
		ops:      make([]Op, nOps),
		operands: make([]Operand, nOperands),
		byID:     make([]*Op, nOps),
	}
}

// newOp takes the next op slot. Every line that parses as an op was
// counted, so the fallback only serves a line that then fails.
func (p *textParser) newOp() *Op {
	if len(p.ops) == 0 {
		return new(Op)
	}
	o := &p.ops[0]
	p.ops = p.ops[1:]
	return o
}

// newOperands takes room for n operands, length 0 and capacity n, so an
// append past n reallocates instead of writing over the next op's.
func (p *textParser) newOperands(n int) []Operand {
	if n > len(p.operands) {
		return make([]Operand, 0, n)
	}
	s := p.operands[:0:n]
	p.operands = p.operands[n:]
	return s
}

// op returns the op last parsed with id, or nil.
func (p *textParser) op(id int) *Op {
	if uint(id) < uint(len(p.byID)) {
		return p.byID[id]
	}
	return p.far[id]
}

// setOp records o as the op with its ID; a later op with the same ID
// replaces it (Validate rejects the module).
func (p *textParser) setOp(o *Op) {
	if uint(o.ID) < uint(len(p.byID)) {
		p.byID[o.ID] = o
		return
	}
	if p.far == nil {
		p.far = make(map[int]*Op)
	}
	p.far[o.ID] = o
}

func (p *textParser) parseOp(m *Module, f *Function, fields []string, loopByID map[int]*Loop) (*Op, error) {
	// %ID = kind ["name"] iW [mem=a] [%op[:bits]...] [@file:line] [loop=N] [replica=R/I]
	id, err := strconv.Atoi(strings.TrimPrefix(fields[0], "%"))
	if err != nil || id < 0 || len(fields) < 4 || fields[1] != "=" {
		return nil, fmt.Errorf("malformed op header")
	}
	kind := kindOfName[fields[2]]
	if !kind.Valid() {
		return nil, fmt.Errorf("unknown op kind %q", fields[2])
	}
	o := p.newOp()
	*o = Op{ID: id, Kind: kind, Func: f, ReplicaOf: -1}
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
		o.Operands = p.newOperands(operands)
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
			def := p.op(did)
			if def == nil {
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

// unquoteName decodes a quoted op name. Only the form writeOp emits (%q)
// is accepted, so a parsed name always writes back as the token it came
// from. A token of printable ASCII without escapes is already that form.
func unquoteName(tok string) (string, bool) {
	name, err := strconv.Unquote(tok)
	if err != nil {
		return "", false
	}
	for i := 0; i < len(tok); i++ {
		if c := tok[i]; c < ' ' || c > '~' || c == '\\' {
			return name, strconv.Quote(name) == tok
		}
	}
	return name, true
}

// defaultOpName is the name NewBuilder assigns when the caller never names
// the op; such names carry no information and are omitted from the text.
func defaultOpName(kind OpKind, id int) string {
	var buf [32]byte
	b := append(buf[:0], kind.String()...)
	b = append(b, '_')
	return string(strconv.AppendInt(b, int64(id), 10))
}

func cutKV(s string) (k, v string, ok bool) {
	i := strings.IndexByte(s, '=')
	if i < 0 {
		return "", "", false
	}
	return s[:i], s[i+1:], true
}

// appendFields appends the fields of s to dst, split exactly as
// strings.Fields splits them, without allocating when dst has room. Lines
// are ASCII in practice; any other line goes through strings.Fields.
func appendFields(dst []string, s string) []string {
	base, start := len(dst), -1
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= utf8.RuneSelf {
			return append(dst[:base], strings.Fields(s)...)
		}
		if asciiSpace[c] {
			if start >= 0 {
				dst = append(dst, s[start:i])
				start = -1
			}
		} else if start < 0 {
			start = i
		}
	}
	if start >= 0 {
		dst = append(dst, s[start:])
	}
	return dst
}

var asciiSpace = [utf8.RuneSelf]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// kindOfName resolves a textual kind name; an unknown name reads as
// KindInvalid.
var kindOfName = func() map[string]OpKind {
	byName := make(map[string]OpKind, KindCount)
	for _, k := range AllKinds() {
		byName[k.String()] = k
	}
	return byName
}()
