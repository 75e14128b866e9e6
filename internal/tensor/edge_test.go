package tensor

import (
	"strings"
	"testing"
)

func TestStringTruncates(t *testing.T) {
	x := Ones(3, 4)
	s := x.String()
	if !strings.Contains(s, "+4") {
		t.Fatalf("expected truncation marker in %q", s)
	}
	if !strings.Contains(s, "[3 4]") {
		t.Fatalf("expected shape in %q", s)
	}
	short := FromSlice([]float32{1, 2}, 2).String()
	if strings.Contains(short, "+") {
		t.Fatalf("short tensor should not truncate: %q", short)
	}
}

func TestFullAndOnes(t *testing.T) {
	f := Full(2.5, 2, 2)
	for _, v := range f.Data() {
		if v != 2.5 {
			t.Fatal("Full wrong")
		}
	}
	o := Ones(3)
	if o.Sum() != 3 {
		t.Fatal("Ones wrong")
	}
}

func TestMinMaxEmptyPanics(t *testing.T) {
	empty := New(0)
	for _, fn := range []func(){
		func() { empty.Max() },
		func() { empty.Min() },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		}()
	}
	if MaxAbs(empty.Data()) != 0 {
		t.Fatal("MaxAbs of empty should be 0")
	}
	if empty.Sparsity() != 0 {
		t.Fatal("Sparsity of empty should be 0")
	}
}

func TestAxpyMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	AxpyInto(New(2), 1, New(3))
}

func TestDotMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Dot(New(2), New(3))
}

func TestIndexRankMismatchPanics(t *testing.T) {
	x := New(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	x.At(1)
}

func TestTransposeNonMatrixPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Transpose(New(2, 2, 2))
}

func TestRNGIntnInvalidPanics(t *testing.T) {
	r := NewRNG(1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	r.Intn(0)
}

func TestUniformRange(t *testing.T) {
	r := NewRNG(4)
	u := RandUniform(r, -2, 3, 1000)
	mn, _ := u.Min()
	mx, _ := u.Max()
	if mn < -2 || mx > 3 {
		t.Fatalf("uniform out of range: [%v, %v]", mn, mx)
	}
	if mx-mn < 3 {
		t.Fatal("uniform suspiciously narrow")
	}
}
