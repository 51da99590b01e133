package dataset

// Encoding maps categorical rows into the float feature vectors the
// classifiers consume. Ordered attributes are encoded as a single
// scaled ordinal feature; unordered attributes are one-hot encoded.
// This mirrors the standard preprocessing in the paper's scikit-learn
// pipeline.
type Encoding struct {
	schema  *Schema
	width   int
	offsets []int // per attribute, start column in the feature vector
	onehot  []bool
}

// NewEncoding builds the feature layout for a schema.
func NewEncoding(s *Schema) *Encoding {
	e := &Encoding{
		schema:  s,
		offsets: make([]int, len(s.Attrs)),
		onehot:  make([]bool, len(s.Attrs)),
	}
	col := 0
	for i := range s.Attrs {
		e.offsets[i] = col
		if s.Attrs[i].Ordered || s.Attrs[i].Cardinality() <= 2 {
			// Ordinal or binary: one column suffices.
			col++
		} else {
			e.onehot[i] = true
			col += s.Attrs[i].Cardinality()
		}
	}
	e.width = col
	return e
}

// Width returns the number of feature columns.
func (e *Encoding) Width() int { return e.width }

// ColumnNames returns a human-readable name per feature column:
// "attr" for ordinal/binary columns and "attr=value" for one-hot
// columns. Used to label feature-importance reports.
func (e *Encoding) ColumnNames() []string {
	names := make([]string, e.width)
	for i := range e.schema.Attrs {
		a := &e.schema.Attrs[i]
		if e.onehot[i] {
			for v, val := range a.Values {
				names[e.offsets[i]+v] = a.Name + "=" + val
			}
		} else {
			names[e.offsets[i]] = a.Name
		}
	}
	return names
}

// EncodeRow writes the feature vector of row into dst (len = Width) and
// returns dst. If dst is nil, a new slice is allocated.
func (e *Encoding) EncodeRow(row []int32, dst []float64) []float64 {
	if dst == nil {
		dst = make([]float64, e.width)
	} else {
		for i := range dst {
			dst[i] = 0
		}
	}
	for i, v := range row {
		if e.onehot[i] {
			dst[e.offsets[i]+int(v)] = 1
			continue
		}
		card := e.schema.Attrs[i].Cardinality()
		if card > 1 {
			dst[e.offsets[i]] = float64(v) / float64(card-1)
		}
	}
	return dst
}

// Encode materializes the full feature matrix and label/weight vectors
// of d. Labels are float 0/1 for the numeric learners.
//
// Rows are cut from shared blocks of at most 32 KiB, Go's largest small
// object: one allocation per ~110 Adult rows, with neighbouring rows
// adjacent in memory. A row wider than a block gets a block of its own.
// Each row is capped at Width, so appending to one reallocates it
// instead of overwriting the next. (One array for the whole matrix
// would be a large object; allocated afresh per training run, those
// fragment the heap, and on the remedy-train benchmark one raised peak
// RSS by ~23 MiB.)
func (e *Encoding) Encode(d *Dataset) (x [][]float64, y []float64, w []float64) {
	x = make([][]float64, d.Len())
	y = make([]float64, d.Len())
	w = make([]float64, d.Len())
	perBlock := max(4096/max(e.width, 1), 1)
	var block []float64
	for i := range d.Rows {
		if len(block) == 0 {
			block = make([]float64, min(perBlock, d.Len()-i)*e.width)
		}
		x[i] = e.EncodeRow(d.Rows[i], block[:e.width:e.width])
		block = block[e.width:]
		y[i] = float64(d.Labels[i])
		w[i] = d.Weight(i)
	}
	return x, y, w
}
