package serve

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"strconv"
	"unsafe"

	"repro/internal/ml"
)

// Request/response content types. JSON is the convenience surface; the
// raw little-endian float64 format is the wire fast path — decoding it is
// a bounds check and a copy, with no float parsing (BenchmarkDecodeF64
// against BenchmarkDecodeJSONRows measures the difference).
const (
	// ContentJSON marks a JSON payload: {"rows": [[f, ...], ...]} (the
	// "rows" wrapper is optional). The response mirrors it as
	// {"rows": n, "vert": [...], "horiz": [...], "avg": [...]}.
	ContentJSON = "application/json"
	// ContentF64 marks the binary payload: uint32 row count, uint32
	// column count, then rows×cols little-endian float64 values. The
	// response is uint32 row count followed by the vert, horiz and avg
	// sections, each rows float64 values.
	ContentF64 = "application/x-congest-f64"
)

// ErrBadPayload wraps every request-decoding failure; the HTTP layer maps
// it to 400.
var ErrBadPayload = errors.New("serve: malformed request payload")

// unsafeString views b as a string without copying. The bytes must not be
// mutated while the string is live; the only caller hands it straight to
// strconv.ParseFloat, which does not retain its argument.
func unsafeString(b []byte) string {
	return unsafe.String(unsafe.SliceData(b), len(b))
}

// decodeF64 parses the binary feature payload into m, reusing m's backing
// array. Row and column counts are validated against the actual body
// length before any copy, and every value must be finite — models fed NaN
// would dutifully emit NaN, so hostile bytes are stopped at the door.
func decodeF64(b []byte, m *ml.Matrix) error {
	if len(b) < 8 {
		return fmt.Errorf("%w: binary header truncated (%d bytes)", ErrBadPayload, len(b))
	}
	rows := int(binary.LittleEndian.Uint32(b))
	cols := int(binary.LittleEndian.Uint32(b[4:]))
	if rows < 0 || cols < 0 || (rows > 0 && cols > (len(b)-8)/8/rows) {
		return fmt.Errorf("%w: binary shape %d x %d exceeds body", ErrBadPayload, rows, cols)
	}
	if want := 8 + 8*rows*cols; want != len(b) {
		return fmt.Errorf("%w: binary body is %d bytes, shape %d x %d needs %d",
			ErrBadPayload, len(b), rows, cols, want)
	}
	if rows == 0 {
		m.Reset(0, cols)
		return nil
	}
	m.Reset(rows, cols)
	for i := range m.Data {
		v := math.Float64frombits(binary.LittleEndian.Uint64(b[8+8*i:]))
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%w: non-finite feature value at flat index %d", ErrBadPayload, i)
		}
		m.Data[i] = v
	}
	return nil
}

// appendF64Response appends the binary response (row count + the three
// result sections) to dst and returns it. Allocation-free once dst has
// capacity.
func appendF64Response(dst []byte, vert, horiz, avg []float64) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(vert)))
	for _, s := range [3][]float64{vert, horiz, avg} {
		for _, v := range s {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
		}
	}
	return dst
}

// jsonCursor is a hand-rolled scanner for the one JSON shape /predict
// accepts: an array of equal-length number arrays, optionally wrapped as
// {"rows": ...}. encoding/json would allocate per token on this path;
// the cursor parses into the pooled matrix with zero steady-state
// allocations and rejects everything outside that grammar.
type jsonCursor struct {
	b []byte
	i int
}

func (c *jsonCursor) ws() {
	for c.i < len(c.b) {
		switch c.b[c.i] {
		case ' ', '\t', '\n', '\r':
			c.i++
		default:
			return
		}
	}
}

// eat consumes ch or fails.
func (c *jsonCursor) eat(ch byte) error {
	if c.i >= len(c.b) || c.b[c.i] != ch {
		return fmt.Errorf("%w: want %q at offset %d", ErrBadPayload, string(ch), c.i)
	}
	c.i++
	return nil
}

// peek returns the next byte without consuming (0 at end of input).
func (c *jsonCursor) peek() byte {
	if c.i >= len(c.b) {
		return 0
	}
	return c.b[c.i]
}

// number scans one JSON number and parses it with strconv through an
// unsafe string view (no copy, no allocation).
func (c *jsonCursor) number() (float64, error) {
	start := c.i
	for c.i < len(c.b) {
		switch ch := c.b[c.i]; {
		case ch >= '0' && ch <= '9', ch == '+', ch == '-', ch == '.', ch == 'e', ch == 'E':
			c.i++
		default:
			goto done
		}
	}
done:
	if c.i == start {
		return 0, fmt.Errorf("%w: want a number at offset %d", ErrBadPayload, start)
	}
	v, err := strconv.ParseFloat(unsafeString(c.b[start:c.i]), 64)
	if err != nil {
		return 0, fmt.Errorf("%w: bad number at offset %d", ErrBadPayload, start)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, fmt.Errorf("%w: non-finite number at offset %d", ErrBadPayload, start)
	}
	return v, nil
}

// decodeJSONRows parses the JSON feature payload into m, reusing m's
// backing array. Rows must be rectangular: the first row fixes the width
// and any later row that disagrees rejects the payload (the model layer
// re-checks width against the trained feature count).
func decodeJSONRows(b []byte, m *ml.Matrix) error {
	c := &jsonCursor{b: b}
	c.ws()
	wrapped := false
	if c.peek() == '{' {
		wrapped = true
		c.i++
		c.ws()
		const key = `"rows"`
		if c.i+len(key) > len(b) || string(b[c.i:c.i+len(key)]) != key {
			return fmt.Errorf("%w: want a %s key at offset %d", ErrBadPayload, key, c.i)
		}
		c.i += len(key)
		c.ws()
		if err := c.eat(':'); err != nil {
			return err
		}
		c.ws()
	}
	if err := c.eat('['); err != nil {
		return err
	}
	data := m.Data[:0]
	rows, cols := 0, 0
	c.ws()
	if c.peek() != ']' {
		for {
			if err := c.eat('['); err != nil {
				return err
			}
			width := 0
			c.ws()
			if c.peek() != ']' {
				for {
					c.ws()
					v, err := c.number()
					if err != nil {
						return err
					}
					data = append(data, v)
					width++
					c.ws()
					if c.peek() != ',' {
						break
					}
					c.i++
				}
			}
			if err := c.eat(']'); err != nil {
				return err
			}
			if rows == 0 {
				cols = width
			} else if width != cols {
				return fmt.Errorf("%w: ragged batch: row %d has %d values, row 0 has %d",
					ErrBadPayload, rows, width, cols)
			}
			rows++
			c.ws()
			if c.peek() != ',' {
				break
			}
			c.i++
			c.ws()
		}
	}
	if err := c.eat(']'); err != nil {
		return err
	}
	c.ws()
	if wrapped {
		if err := c.eat('}'); err != nil {
			return err
		}
		c.ws()
	}
	if c.i != len(b) {
		return fmt.Errorf("%w: trailing bytes at offset %d", ErrBadPayload, c.i)
	}
	m.Data = data
	m.Rows, m.Cols = rows, cols
	return nil
}

// appendJSONResponse appends the JSON response document to dst and
// returns it. strconv.AppendFloat writes the shortest round-trippable
// form; nothing allocates once dst has capacity.
func appendJSONResponse(dst []byte, vert, horiz, avg []float64) []byte {
	dst = append(dst, `{"rows":`...)
	dst = strconv.AppendInt(dst, int64(len(vert)), 10)
	dst = append(dst, `,"vert":`...)
	dst = appendFloats(dst, vert)
	dst = append(dst, `,"horiz":`...)
	dst = appendFloats(dst, horiz)
	dst = append(dst, `,"avg":`...)
	dst = appendFloats(dst, avg)
	dst = append(dst, '}', '\n')
	return dst
}

func appendFloats(dst []byte, vals []float64) []byte {
	dst = append(dst, '[')
	for i, v := range vals {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendFloat(dst, v, 'g', -1, 64)
	}
	return append(dst, ']')
}
