package sparse

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// Matrix Market I/O for the "coordinate real" flavours used by sparse
// collections. Supported qualifiers: general and symmetric; pattern matrices
// are read with all values set to 1.

// maxMMDim bounds the dimensions and entry count accepted from a size
// line: far beyond any matrix this repository handles, and small enough
// that no sum of them overflows an int.
const maxMMDim = 1 << 28

// maxMMEmptyDim is the dimension a size line may declare whatever its entry
// count. Beyond it a dimension must not exceed the declared entries: those
// are appended as they are read, so by the time the row pointer — the one
// allocation sized by a dimension — is made, the stream has delivered a line
// for every element of it. What a header alone can make the reader allocate
// is therefore 8 MiB, not the 2 GiB a `268435456 268435456 0` size line
// used to. The price is a matrix over a million rows with fewer entries
// than rows, which no solver here can use.
const maxMMEmptyDim = 1 << 20

// WriteMatrixMarket writes m in Matrix Market coordinate/real/general format.
func WriteMatrixMarket(w io.Writer, m *CSR) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "%%%%MatrixMarket matrix coordinate real general\n"); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(bw, "%d %d %d\n", m.Rows, m.Cols, m.NNZ()); err != nil {
		return err
	}
	for i := 0; i < m.Rows; i++ {
		for k := m.Rowidx[i]; k < m.Rowidx[i+1]; k++ {
			if _, err := fmt.Fprintf(bw, "%d %d %.17g\n", i+1, m.Colid[k]+1, m.Val[k]); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// ReadMatrixMarket parses a Matrix Market coordinate stream into a CSR
// matrix. Symmetric storage is expanded; pattern entries become 1.0.
func ReadMatrixMarket(r io.Reader) (*CSR, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<24)

	if !sc.Scan() {
		return nil, fmt.Errorf("sparse: empty Matrix Market stream")
	}
	header := strings.Fields(strings.ToLower(sc.Text()))
	if len(header) < 4 || header[0] != "%%matrixmarket" || header[1] != "matrix" {
		return nil, fmt.Errorf("sparse: bad Matrix Market header %q", sc.Text())
	}
	if header[2] != "coordinate" {
		return nil, fmt.Errorf("sparse: only coordinate format supported, got %q", header[2])
	}
	field := header[3]
	switch field {
	case "real", "integer", "pattern":
	default:
		return nil, fmt.Errorf("sparse: unsupported field %q", field)
	}
	symmetry := "general"
	if len(header) >= 5 {
		symmetry = header[4]
	}
	switch symmetry {
	case "general", "symmetric":
	default:
		return nil, fmt.Errorf("sparse: unsupported symmetry %q", symmetry)
	}

	// Skip comment lines, find the size line.
	var rows, cols, nnz int
	for {
		if !sc.Scan() {
			return nil, fmt.Errorf("sparse: missing size line")
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		if _, err := fmt.Sscan(line, &rows, &cols, &nnz); err != nil {
			return nil, fmt.Errorf("sparse: bad size line %q: %v", line, err)
		}
		break
	}
	if rows < 0 || cols < 0 || nnz < 0 {
		return nil, fmt.Errorf("sparse: negative dimensions in size line (%d x %d, %d entries)", rows, cols, nnz)
	}
	if rows > maxMMDim || cols > maxMMDim || nnz > maxMMDim {
		return nil, fmt.Errorf("sparse: implausibly large size line (%d x %d, %d entries; limit %d)", rows, cols, nnz, maxMMDim)
	}
	if lim := max(nnz, maxMMEmptyDim); rows > lim || cols > lim {
		return nil, fmt.Errorf("sparse: size line declares %d x %d with %d entries; a dimension beyond %d must not exceed the entry count", rows, cols, nnz, maxMMEmptyDim)
	}
	if symmetry == "symmetric" && rows != cols {
		return nil, fmt.Errorf("sparse: symmetric matrix must be square, got %dx%d", rows, cols)
	}

	c := NewCOO(rows, cols)
	read := 0
	for read < nnz {
		if !sc.Scan() {
			return nil, fmt.Errorf("sparse: expected %d entries, got %d", nnz, read)
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		f := strings.Fields(line)
		wantFields := 3
		if field == "pattern" {
			wantFields = 2
		}
		if len(f) < wantFields {
			return nil, fmt.Errorf("sparse: bad entry line %q", line)
		}
		i, err := strconv.Atoi(f[0])
		if err != nil {
			return nil, fmt.Errorf("sparse: bad row index %q: %v", f[0], err)
		}
		j, err := strconv.Atoi(f[1])
		if err != nil {
			return nil, fmt.Errorf("sparse: bad col index %q: %v", f[1], err)
		}
		v := 1.0
		if field != "pattern" {
			v, err = strconv.ParseFloat(f[2], 64)
			if err != nil {
				return nil, fmt.Errorf("sparse: bad value %q: %v", f[2], err)
			}
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("sparse: entry (%d,%d) is not finite: %q", i, j, f[2])
			}
		}
		if i < 1 || i > rows || j < 1 || j > cols {
			return nil, fmt.Errorf("sparse: entry (%d,%d) out of %dx%d", i, j, rows, cols)
		}
		c.Add(i-1, j-1, v)
		if symmetry == "symmetric" && i != j {
			c.Add(j-1, i-1, v)
		}
		read++
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("sparse: reading Matrix Market stream: %w", err)
	}
	return c.ToCSR(), nil
}
