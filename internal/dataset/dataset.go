// Package dataset implements the tabular data engine the rest of the
// repository builds on: categorical schemas, encoded rows, binary
// labels, per-instance sample weights, CSV input/output, train/test
// splitting, and feature encoding for the classifiers.
//
// The paper works exclusively with categorical (or bucketized)
// attributes, so every attribute value is stored as a small integer code
// into the attribute's domain. Continuous source columns must arrive
// bucketized: ReadCSV (csv.go) treats each distinct value as a category.
package dataset

import (
	"errors"
	"fmt"
	"strings"
)

// ErrRowWidth is returned by Append and AppendWeighted when a row's
// width does not match the schema.
var ErrRowWidth = errors.New("dataset: row width mismatch")

// Attr describes one categorical attribute.
type Attr struct {
	Name      string
	Values    []string // domain; an attribute value is an index into this slice
	Protected bool     // participates in the intersectional space X
	Ordered   bool     // values have a natural order (age buckets, income buckets)
}

// Cardinality returns the size of the attribute's domain.
func (a *Attr) Cardinality() int { return len(a.Values) }

// ValueIndex returns the code of value v, or -1 if v is not in the
// domain.
func (a *Attr) ValueIndex(v string) int {
	for i, s := range a.Values {
		if s == v {
			return i
		}
	}
	return -1
}

// Schema is an ordered collection of attributes plus the name of the
// binary prediction target.
type Schema struct {
	Attrs  []Attr
	Target string // label column name, e.g. "two_year_recid"
}

// AttrIndex returns the position of the named attribute, or -1.
func (s *Schema) AttrIndex(name string) int {
	for i := range s.Attrs {
		if s.Attrs[i].Name == name {
			return i
		}
	}
	return -1
}

// ProtectedIdx returns the indices of the protected attributes in
// schema order. This defines the intersectional space X.
func (s *Schema) ProtectedIdx() []int {
	var idx []int
	for i := range s.Attrs {
		if s.Attrs[i].Protected {
			idx = append(idx, i)
		}
	}
	return idx
}

// SetProtected marks exactly the named attributes as protected. It
// returns an error if a name is unknown. Experiments use it to vary
// |X| (Fig. 9).
func (s *Schema) SetProtected(names ...string) error {
	want := make(map[string]bool, len(names))
	for _, n := range names {
		if s.AttrIndex(n) < 0 {
			return fmt.Errorf("dataset: unknown attribute %q", n)
		}
		want[n] = true
	}
	for i := range s.Attrs {
		s.Attrs[i].Protected = want[s.Attrs[i].Name]
	}
	return nil
}

// Clone deep-copies the schema so experiments can toggle protected
// flags without aliasing.
func (s *Schema) Clone() *Schema {
	c := &Schema{Target: s.Target, Attrs: make([]Attr, len(s.Attrs))}
	for i, a := range s.Attrs {
		c.Attrs[i] = Attr{
			Name:      a.Name,
			Values:    append([]string(nil), a.Values...),
			Protected: a.Protected,
			Ordered:   a.Ordered,
		}
	}
	return c
}

// Dataset is a labeled categorical table. Weights is optional; nil
// means all instances weigh 1. Rows[i][j] is the code of attribute j in
// instance i.
type Dataset struct {
	Schema  *Schema
	Rows    [][]int32
	Labels  []int8 // 0 or 1
	Weights []float64
}

// New returns an empty dataset over the given schema.
func New(s *Schema) *Dataset { return &Dataset{Schema: s} }

// Len returns the number of instances.
func (d *Dataset) Len() int { return len(d.Rows) }

// Weight returns the sample weight of instance i (1 when unweighted).
func (d *Dataset) Weight(i int) float64 {
	if d.Weights == nil {
		return 1
	}
	return d.Weights[i]
}

// EnsureWeights materializes the weight vector (all ones) so callers can
// mutate individual weights.
func (d *Dataset) EnsureWeights() {
	if d.Weights == nil {
		d.Weights = make([]float64, d.Len())
		for i := range d.Weights {
			d.Weights[i] = 1
		}
	}
}

// Append adds one instance. The row slice is retained, not copied. A
// row whose width does not match the schema is rejected with
// ErrRowWidth and the dataset is left unchanged; callers that build
// rows directly from the schema (the generators, the remedy
// techniques) may discard the error.
func (d *Dataset) Append(row []int32, label int8) error {
	if len(row) != len(d.Schema.Attrs) {
		return fmt.Errorf("%w: row width %d != schema width %d", ErrRowWidth, len(row), len(d.Schema.Attrs))
	}
	d.Rows = append(d.Rows, row)
	d.Labels = append(d.Labels, label)
	if d.Weights != nil {
		d.Weights = append(d.Weights, 1)
	}
	return nil
}

// AppendWeighted adds one instance with an explicit weight. It shares
// Append's ErrRowWidth contract.
func (d *Dataset) AppendWeighted(row []int32, label int8, w float64) error {
	d.EnsureWeights()
	if err := d.Append(row, label); err != nil {
		return err
	}
	d.Weights[len(d.Weights)-1] = w
	return nil
}

// Clone deep-copies the dataset (sharing the schema).
func (d *Dataset) Clone() *Dataset {
	c := &Dataset{
		Schema: d.Schema,
		Rows:   make([][]int32, len(d.Rows)),
		Labels: append([]int8(nil), d.Labels...),
	}
	for i, r := range d.Rows {
		c.Rows[i] = append([]int32(nil), r...)
	}
	if d.Weights != nil {
		c.Weights = append([]float64(nil), d.Weights...)
	}
	return c
}

// Subset returns a new dataset containing the given instance indices
// (rows are shared, not copied — callers that mutate rows must Clone).
func (d *Dataset) Subset(idx []int) *Dataset {
	s := &Dataset{
		Schema: d.Schema,
		Rows:   make([][]int32, len(idx)),
		Labels: make([]int8, len(idx)),
	}
	if d.Weights != nil {
		s.Weights = make([]float64, len(idx))
	}
	for i, j := range idx {
		s.Rows[i] = d.Rows[j]
		s.Labels[i] = d.Labels[j]
		if d.Weights != nil {
			s.Weights[i] = d.Weights[j]
		}
	}
	return s
}

// Remove returns a new dataset without the given instance indices.
func (d *Dataset) Remove(idx []int) *Dataset {
	drop := make(map[int]bool, len(idx))
	for _, i := range idx {
		drop[i] = true
	}
	keep := make([]int, 0, d.Len()-len(drop))
	for i := 0; i < d.Len(); i++ {
		if !drop[i] {
			keep = append(keep, i)
		}
	}
	return d.Subset(keep)
}

// PositiveCount returns the number of instances with label 1.
func (d *Dataset) PositiveCount() int {
	var n int
	for _, y := range d.Labels {
		if y == 1 {
			n++
		}
	}
	return n
}

// BaseRate returns the fraction of positive labels.
func (d *Dataset) BaseRate() float64 {
	if d.Len() == 0 {
		return 0
	}
	return float64(d.PositiveCount()) / float64(d.Len())
}

// Match reports whether instance i matches the given (attribute, value)
// assignments. A value of -1 acts as a wildcard.
func (d *Dataset) Match(i int, attrIdx []int, values []int32) bool {
	row := d.Rows[i]
	for k, a := range attrIdx {
		if values[k] >= 0 && row[a] != values[k] {
			return false
		}
	}
	return true
}

// String summarizes the dataset for logs and examples.
func (d *Dataset) String() string {
	var prot []string
	for _, a := range d.Schema.Attrs {
		if a.Protected {
			prot = append(prot, a.Name)
		}
	}
	return fmt.Sprintf("Dataset{rows: %d, attrs: %d, protected: [%s], positives: %d (%.1f%%)}",
		d.Len(), len(d.Schema.Attrs), strings.Join(prot, ", "),
		d.PositiveCount(), 100*d.BaseRate())
}

// Validate checks internal consistency: row widths, code ranges, label
// values and weight vector length. It is used by tests and by the CSV
// loader.
func (d *Dataset) Validate() error {
	w := len(d.Schema.Attrs)
	if len(d.Labels) != len(d.Rows) {
		return fmt.Errorf("dataset: %d rows but %d labels", len(d.Rows), len(d.Labels))
	}
	if d.Weights != nil && len(d.Weights) != len(d.Rows) {
		return fmt.Errorf("dataset: %d rows but %d weights", len(d.Rows), len(d.Weights))
	}
	for i, r := range d.Rows {
		if len(r) != w {
			return fmt.Errorf("dataset: row %d width %d != %d", i, len(r), w)
		}
		for j, v := range r {
			if v < 0 || int(v) >= d.Schema.Attrs[j].Cardinality() {
				return fmt.Errorf("dataset: row %d attr %s code %d out of domain [0,%d)",
					i, d.Schema.Attrs[j].Name, v, d.Schema.Attrs[j].Cardinality())
			}
		}
		if d.Labels[i] != 0 && d.Labels[i] != 1 {
			return fmt.Errorf("dataset: row %d label %d not binary", i, d.Labels[i])
		}
	}
	return nil
}
