package la

// In-place kernel variants. These exist for the hot paths — the matrix
// exponential and the ZOH rebuild of the fast simulation engine — where the
// allocating Mul/AddM/SubM/Scale would otherwise churn ~20 small matrices
// per call. Each variant performs exactly the same floating-point
// operations in the same order as its allocating counterpart, so swapping
// one in never changes a result bit.

// MulInto computes the product a·b into dst. dst must not alias either
// operand; shapes must be compatible.
func MulInto(dst, a, b *Matrix) {
	if a.cols != b.rows || dst.rows != a.rows || dst.cols != b.cols {
		panic(ErrShape)
	}
	if dst == a || dst == b {
		panic("la: MulInto destination aliases an operand")
	}
	for i := range dst.data {
		dst.data[i] = 0
	}
	for i := 0; i < a.rows; i++ {
		arow := a.data[i*a.cols : (i+1)*a.cols]
		orow := dst.data[i*dst.cols : (i+1)*dst.cols]
		for k, aik := range arow {
			if aik == 0 {
				continue
			}
			brow := b.data[k*b.cols : (k+1)*b.cols]
			for j, bkj := range brow {
				orow[j] += aik * bkj
			}
		}
	}
}

// AddInto computes a + b into dst. Element-wise, so dst may alias a or b.
func AddInto(dst, a, b *Matrix) {
	if a.rows != b.rows || a.cols != b.cols || dst.rows != a.rows || dst.cols != a.cols {
		panic(ErrShape)
	}
	for i := range dst.data {
		dst.data[i] = a.data[i] + b.data[i]
	}
}

// SubInto computes a − b into dst. Element-wise, so dst may alias a or b.
func SubInto(dst, a, b *Matrix) {
	if a.rows != b.rows || a.cols != b.cols || dst.rows != a.rows || dst.cols != a.cols {
		panic(ErrShape)
	}
	for i := range dst.data {
		dst.data[i] = a.data[i] - b.data[i]
	}
}

// ScaleInto computes s·a into dst. Element-wise, so dst may alias a.
func ScaleInto(dst, a *Matrix, s float64) {
	if dst.rows != a.rows || dst.cols != a.cols {
		panic(ErrShape)
	}
	for i := range dst.data {
		dst.data[i] = a.data[i] * s
	}
}

// SetIdentity overwrites the square matrix m with the identity.
func SetIdentity(m *Matrix) {
	if m.rows != m.cols {
		panic(ErrShape)
	}
	for i := range m.data {
		m.data[i] = 0
	}
	for i := 0; i < m.rows; i++ {
		m.data[i*m.cols+i] = 1
	}
}
