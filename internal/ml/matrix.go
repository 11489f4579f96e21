package ml

// Matrix is a dense row-major matrix on one contiguous backing slice —
// the flat data layout of the ML fast path. Where the original code moved
// `[][]float64`-of-pointers around (one heap object per row, rows
// scattered across the heap), the hot paths now thread a Matrix and reuse
// its backing array across folds and grid points; row views are materialized
// only at the model boundary, pointing into the flat data.
type Matrix struct {
	// Rows and Cols are the logical dimensions; Data holds Rows*Cols
	// values, row i occupying Data[i*Cols : (i+1)*Cols].
	Rows, Cols int
	Data       []float64
}

// NewMatrix returns a zeroed rows×cols matrix.
func NewMatrix(rows, cols int) Matrix {
	return Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// MatrixFromRows copies X into a fresh contiguous matrix. Ragged inputs
// keep their leading len(X[0]) columns; rows shorter than that are
// zero-padded (the model layer validates shapes, not the copy).
func MatrixFromRows(X [][]float64) Matrix {
	var m Matrix
	m.SetFromRows(X)
	return m
}

// SetFromRows resizes m to the shape of X (reusing the backing array when
// it is large enough) and copies every row in.
func (m *Matrix) SetFromRows(X [][]float64) {
	cols := 0
	if len(X) > 0 {
		cols = len(X[0])
	}
	m.Reset(len(X), cols)
	for i, row := range X {
		copy(m.Row(i), row)
	}
}

// Reset reshapes m to rows×cols, growing the backing array only when
// needed and otherwise reusing it. Contents after Reset are unspecified;
// callers overwrite every row they read.
func (m *Matrix) Reset(rows, cols int) {
	n := rows * cols
	if cap(m.Data) < n {
		m.Data = make([]float64, n)
	}
	m.Data = m.Data[:n]
	m.Rows, m.Cols = rows, cols
}

// Row returns the i-th row as a full-capacity view into the flat backing
// array: an append on the returned slice can never bleed into row i+1.
func (m Matrix) Row(i int) []float64 {
	return m.Data[i*m.Cols : (i+1)*m.Cols : (i+1)*m.Cols]
}

// RowViews fills dst (grown as needed) with one view per row and returns
// it. The views stay valid until the next Reset that grows the backing
// array; regenerate them after any reshape.
func (m Matrix) RowViews(dst [][]float64) [][]float64 {
	if cap(dst) < m.Rows {
		dst = make([][]float64, m.Rows)
	}
	dst = dst[:m.Rows]
	for i := range dst {
		dst[i] = m.Row(i)
	}
	return dst
}

// GatherVec copies the selected entries of src into dst, growing it as
// needed, and returns the filled slice.
func GatherVec(dst []float64, src []float64, idx []int) []float64 {
	if cap(dst) < len(idx) {
		dst = make([]float64, len(idx))
	}
	dst = dst[:len(idx)]
	for i, j := range idx {
		dst[i] = src[j]
	}
	return dst
}
