package dataset

import (
	"bytes"
	"errors"
	"slices"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

func testSchema() *Schema {
	return &Schema{
		Target: "label",
		Attrs: []Attr{
			{Name: "age", Values: []string{"<25", "25-45", ">45"}, Protected: true, Ordered: true},
			{Name: "race", Values: []string{"white", "black", "other"}, Protected: true},
			{Name: "sex", Values: []string{"male", "female"}, Protected: true},
			{Name: "priors", Values: []string{"0", "1-3", ">3"}, Ordered: true},
		},
	}
}

func testData(t *testing.T, n int, seed int64) *Dataset {
	t.Helper()
	s := testSchema()
	d := New(s)
	r := stats.NewRNG(seed)
	for i := 0; i < n; i++ {
		row := []int32{
			int32(r.Intn(3)), int32(r.Intn(3)), int32(r.Intn(2)), int32(r.Intn(3)),
		}
		d.Append(row, int8(r.Intn(2)))
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	return d
}

func TestAttrAndSchemaLookups(t *testing.T) {
	s := testSchema()
	if got := s.AttrIndex("race"); got != 1 {
		t.Fatalf("AttrIndex(race) = %d", got)
	}
	if got := s.AttrIndex("nope"); got != -1 {
		t.Fatalf("AttrIndex(nope) = %d", got)
	}
	if got := s.Attrs[0].ValueIndex("25-45"); got != 1 {
		t.Fatalf("ValueIndex = %d", got)
	}
	if got := s.Attrs[0].ValueIndex("zzz"); got != -1 {
		t.Fatalf("ValueIndex(zzz) = %d", got)
	}
	prot := s.ProtectedIdx()
	if len(prot) != 3 || prot[0] != 0 || prot[2] != 2 {
		t.Fatalf("ProtectedIdx = %v", prot)
	}
}

func TestSetProtected(t *testing.T) {
	s := testSchema()
	if err := s.SetProtected("race", "priors"); err != nil {
		t.Fatal(err)
	}
	prot := s.ProtectedIdx()
	if len(prot) != 2 || prot[0] != 1 || prot[1] != 3 {
		t.Fatalf("ProtectedIdx = %v", prot)
	}
	if err := s.SetProtected("bogus"); err == nil {
		t.Fatal("expected error for unknown attribute")
	}
}

func TestSchemaCloneIsDeep(t *testing.T) {
	s := testSchema()
	c := s.Clone()
	c.Attrs[0].Protected = false
	c.Attrs[0].Values[0] = "changed"
	if !s.Attrs[0].Protected || s.Attrs[0].Values[0] != "<25" {
		t.Fatal("Clone aliased the original schema")
	}
}

func TestAppendValidateAndCounts(t *testing.T) {
	d := New(testSchema())
	d.Append([]int32{0, 1, 0, 2}, 1)
	d.Append([]int32{2, 0, 1, 0}, 0)
	if d.Len() != 2 || d.PositiveCount() != 1 {
		t.Fatalf("Len=%d Pos=%d", d.Len(), d.PositiveCount())
	}
	if br := d.BaseRate(); br != 0.5 {
		t.Fatalf("BaseRate = %v", br)
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	// Out-of-domain code must fail validation.
	d.Rows[0][1] = 99
	if err := d.Validate(); err == nil {
		t.Fatal("expected validation error for out-of-domain code")
	}
}

func TestAppendRejectsBadWidth(t *testing.T) {
	d := New(testSchema())
	if err := d.Append([]int32{0, 1}, 0); !errors.Is(err, ErrRowWidth) {
		t.Fatalf("Append = %v, want ErrRowWidth", err)
	}
	if err := d.AppendWeighted([]int32{0, 1}, 0, 2); !errors.Is(err, ErrRowWidth) {
		t.Fatalf("AppendWeighted = %v, want ErrRowWidth", err)
	}
	if d.Len() != 0 {
		t.Fatalf("rejected rows must not be retained, len = %d", d.Len())
	}
}

func TestWeights(t *testing.T) {
	d := New(testSchema())
	d.Append([]int32{0, 0, 0, 0}, 0)
	if d.Weight(0) != 1 {
		t.Fatalf("default weight = %v", d.Weight(0))
	}
	d.AppendWeighted([]int32{1, 1, 1, 1}, 1, 2.5)
	if d.Weight(0) != 1 || d.Weight(1) != 2.5 {
		t.Fatalf("weights = %v", d.Weights)
	}
	// Appending after weights exist keeps the vector aligned.
	d.Append([]int32{2, 2, 1, 2}, 0)
	if len(d.Weights) != 3 || d.Weight(2) != 1 {
		t.Fatalf("weights = %v", d.Weights)
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCloneSubsetRemove(t *testing.T) {
	d := testData(t, 50, 7)
	c := d.Clone()
	c.Rows[0][0] = (c.Rows[0][0] + 1) % 3
	if d.Rows[0][0] == c.Rows[0][0] {
		t.Fatal("Clone aliased rows")
	}
	sub := d.Subset([]int{3, 5, 7})
	if sub.Len() != 3 || sub.Labels[1] != d.Labels[5] {
		t.Fatal("Subset mismatch")
	}
	rem := d.Remove([]int{0, 1, 2})
	if rem.Len() != 47 || rem.Labels[0] != d.Labels[3] {
		t.Fatal("Remove mismatch")
	}
}

func TestMatch(t *testing.T) {
	d := New(testSchema())
	d.Append([]int32{1, 2, 0, 1}, 1)
	if !d.Match(0, []int{0, 1}, []int32{1, 2}) {
		t.Fatal("expected match")
	}
	if d.Match(0, []int{0, 1}, []int32{1, 0}) {
		t.Fatal("unexpected match")
	}
	// Wildcards match anything.
	if !d.Match(0, []int{0, 1, 2}, []int32{-1, -1, 0}) {
		t.Fatal("wildcard should match")
	}
}

func TestSplitPartitions(t *testing.T) {
	d := testData(t, 200, 11)
	train, test := d.Split(0.7, 1)
	if train.Len() != 140 || test.Len() != 60 {
		t.Fatalf("split sizes %d/%d", train.Len(), test.Len())
	}
	// Same seed, same split.
	tr2, _ := d.Split(0.7, 1)
	for i := range train.Rows {
		if train.Labels[i] != tr2.Labels[i] {
			t.Fatal("split is not deterministic")
		}
	}
}

func TestStratifiedSplitPreservesBaseRate(t *testing.T) {
	d := New(testSchema())
	r := stats.NewRNG(5)
	for i := 0; i < 1000; i++ {
		lbl := int8(0)
		if i < 300 {
			lbl = 1
		}
		d.Append([]int32{int32(r.Intn(3)), int32(r.Intn(3)), int32(r.Intn(2)), int32(r.Intn(3))}, lbl)
	}
	train, test := d.StratifiedSplit(0.7, 9)
	if br := train.BaseRate(); br < 0.29 || br > 0.31 {
		t.Fatalf("train base rate %v", br)
	}
	if br := test.BaseRate(); br < 0.29 || br > 0.31 {
		t.Fatalf("test base rate %v", br)
	}
	if train.Len()+test.Len() != 1000 {
		t.Fatalf("sizes %d + %d", train.Len(), test.Len())
	}
}

func TestKFoldCoversAll(t *testing.T) {
	d := testData(t, 103, 13)
	folds := d.KFold(5, 3)
	if len(folds) != 5 {
		t.Fatalf("folds = %d", len(folds))
	}
	seen := make([]int, d.Len())
	for _, f := range folds {
		if len(f[0])+len(f[1]) != d.Len() {
			t.Fatalf("fold sizes %d + %d", len(f[0]), len(f[1]))
		}
		for _, i := range f[1] {
			seen[i]++
		}
	}
	for i, n := range seen {
		if n != 1 {
			t.Fatalf("index %d appears in %d test folds", i, n)
		}
	}
}

func TestSampleFraction(t *testing.T) {
	d := testData(t, 100, 17)
	s := d.SampleFraction(0.25, 4)
	if s.Len() != 25 {
		t.Fatalf("sample len = %d", s.Len())
	}
	full := d.SampleFraction(1.5, 4)
	if full.Len() != 100 {
		t.Fatalf("full len = %d", full.Len())
	}
}

func TestBootstrap(t *testing.T) {
	d := testData(t, 40, 19)
	b := d.Bootstrap(stats.NewRNG(8), 40)
	if b.Len() != 40 {
		t.Fatalf("bootstrap len = %d", b.Len())
	}
}

func TestCSVRoundTrip(t *testing.T) {
	d := testData(t, 60, 23)
	var buf bytes.Buffer
	if err := d.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf, "label", []string{"age", "race", "sex"})
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != d.Len() {
		t.Fatalf("rows %d != %d", got.Len(), d.Len())
	}
	prot := got.Schema.ProtectedIdx()
	if len(prot) != 3 {
		t.Fatalf("protected = %v", prot)
	}
	for i := range d.Rows {
		if got.Labels[i] != d.Labels[i] {
			t.Fatalf("label %d mismatch", i)
		}
		for j := range d.Rows[i] {
			want := d.Schema.Attrs[j].Values[d.Rows[i][j]]
			have := got.Schema.Attrs[j].Values[got.Rows[i][j]]
			if want != have {
				t.Fatalf("row %d attr %d: %q != %q", i, j, have, want)
			}
		}
	}
}

func TestReadCSVErrors(t *testing.T) {
	if _, err := ReadCSV(bytes.NewBufferString("a,b\n1,2\n"), "label", nil); err == nil {
		t.Fatal("expected missing-target error")
	}
	if _, err := ReadCSV(bytes.NewBufferString("a,label\nx,5\n"), "label", nil); err == nil {
		t.Fatal("expected non-binary label error")
	}
}

func TestBucketize(t *testing.T) {
	cuts := []float64{25, 45}
	cases := []struct {
		v    float64
		want int32
	}{{18, 0}, {25, 0}, {26, 1}, {45, 1}, {46, 2}, {99, 2}}
	for _, c := range cases {
		if got := Bucketize(c.v, cuts); got != c.want {
			t.Fatalf("Bucketize(%v) = %d, want %d", c.v, got, c.want)
		}
	}
}

func TestBucketizeMonotone(t *testing.T) {
	cuts := []float64{-1, 0, 2.5, 10}
	f := func(a, b float64) bool {
		if a > b {
			a, b = b, a
		}
		return Bucketize(a, cuts) <= Bucketize(b, cuts)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEncodingLayout(t *testing.T) {
	s := testSchema()
	e := NewEncoding(s)
	// age ordered (1) + race one-hot (3) + sex binary (1) + priors ordered (1) = 6.
	if e.Width() != 6 {
		t.Fatalf("Width = %d, want 6", e.Width())
	}
	v := e.EncodeRow([]int32{2, 1, 1, 0}, nil)
	want := []float64{1, 0, 1, 0, 1, 0}
	for i := range want {
		if v[i] != want[i] {
			t.Fatalf("EncodeRow = %v, want %v", v, want)
		}
	}
	// Reusing dst clears previous content.
	v2 := e.EncodeRow([]int32{0, 0, 0, 0}, v)
	want2 := []float64{0, 1, 0, 0, 0, 0}
	for i := range want2 {
		if v2[i] != want2[i] {
			t.Fatalf("EncodeRow reuse = %v, want %v", v2, want2)
		}
	}
}

func TestEncodeMatrix(t *testing.T) {
	// 1,000 rows of width 6 span two 4,096-cell blocks.
	d := testData(t, 1000, 29)
	e := NewEncoding(d.Schema)
	x, y, w := e.Encode(d)
	if len(x) != 1000 || len(y) != 1000 || len(w) != 1000 {
		t.Fatal("encode sizes")
	}
	for i := range x {
		if len(x[i]) != e.Width() || cap(x[i]) != e.Width() {
			t.Fatalf("row %d len %d cap %d, want %d", i, len(x[i]), cap(x[i]), e.Width())
		}
		if y[i] != float64(d.Labels[i]) || w[i] != 1 {
			t.Fatalf("labels/weights mismatch at %d", i)
		}
		if want := e.EncodeRow(d.Rows[i], nil); !slices.Equal(x[i], want) {
			t.Fatalf("row %d = %v, want %v", i, x[i], want)
		}
	}
	// Rows share backing blocks but are capped: appending to one must
	// not write into the next.
	next := slices.Clone(x[1])
	_ = append(x[0], 42)
	if !slices.Equal(x[1], next) {
		t.Fatalf("after appending to row 0, row 1 = %v, want %v", x[1], next)
	}
}

// A row wider than a 4,096-cell block (here one unordered attribute of
// cardinality 5,000, as an ID column would give) still encodes.
func TestEncodeMatrixWiderThanBlock(t *testing.T) {
	ids := make([]string, 5000)
	for i := range ids {
		ids[i] = strconv.Itoa(i)
	}
	s := &Schema{Target: "label", Attrs: []Attr{
		{Name: "id", Values: ids},
		{Name: "sex", Values: []string{"male", "female"}, Protected: true},
	}}
	d := New(s)
	for i, v := range []int32{0, 4999, 17} {
		if err := d.Append([]int32{v, int32(i % 2)}, int8(i%2)); err != nil {
			t.Fatal(err)
		}
	}
	e := NewEncoding(s)
	if e.Width() <= 4096 {
		t.Fatalf("width %d, want > 4096", e.Width())
	}
	x, _, _ := e.Encode(d)
	for i := range x {
		if len(x[i]) != e.Width() || cap(x[i]) != e.Width() {
			t.Fatalf("row %d len %d cap %d, want %d", i, len(x[i]), cap(x[i]), e.Width())
		}
		if !slices.Equal(x[i], e.EncodeRow(d.Rows[i], nil)) {
			t.Fatalf("row %d differs from EncodeRow", i)
		}
	}
}

func TestDatasetString(t *testing.T) {
	d := testData(t, 10, 31)
	s := d.String()
	if s == "" || len(s) < 10 {
		t.Fatalf("String = %q", s)
	}
}

func TestDescribe(t *testing.T) {
	d := New(testSchema())
	d.Append([]int32{0, 1, 0, 2}, 1)
	d.Append([]int32{0, 0, 1, 0}, 0)
	d.Append([]int32{1, 1, 0, 2}, 1)
	sums := d.Describe()
	if len(sums) != 4 {
		t.Fatalf("summaries = %d", len(sums))
	}
	age := sums[0]
	if age.Name != "age" || !age.Protected || !age.Ordered {
		t.Fatalf("age summary %+v", age)
	}
	if age.Counts[0] != 2 || age.Counts[1] != 1 || age.Counts[2] != 0 {
		t.Fatalf("age counts %v", age.Counts)
	}
	if age.PosRate[0] != 0.5 || age.PosRate[1] != 1 || age.PosRate[2] != 0 {
		t.Fatalf("age pos rates %v", age.PosRate)
	}
	var buf bytes.Buffer
	if err := d.WriteDescription(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"age", "protected,ordered", "positive rate", "<25"} {
		if !strings.Contains(out, want) {
			t.Fatalf("description missing %q:\n%s", want, out)
		}
	}
}
