package montecarlo

import (
	"reflect"
	"testing"
)

// fillDistinct sets every numeric leaf of v, recursing into nested structs,
// to a distinct positive value drawn from *next.
func fillDistinct(t *testing.T, v reflect.Value, next *int) {
	t.Helper()
	switch v.Kind() {
	case reflect.Struct:
		for i := range v.NumField() {
			fillDistinct(t, v.Field(i), next)
		}
	case reflect.Int, reflect.Int64:
		v.SetInt(int64(*next))
		*next++
	case reflect.Float64:
		v.SetFloat(float64(*next))
		*next++
	default:
		t.Fatalf("Counts leaf of kind %v: teach this test how it merges", v.Kind())
	}
}

// checkSum asserts each leaf of sum is the merge of the same leaf of a and
// b: their sum, or their maximum for WeightedResult.MaxW.
func checkSum(t *testing.T, path string, sum, a, b reflect.Value) {
	t.Helper()
	switch sum.Kind() {
	case reflect.Struct:
		for i := range sum.NumField() {
			name := path + "." + sum.Type().Field(i).Name
			checkSum(t, name, sum.Field(i), a.Field(i), b.Field(i))
		}
	case reflect.Int, reflect.Int64:
		if want := a.Int() + b.Int(); sum.Int() != want {
			t.Errorf("%s = %d after Add, want %d + %d = %d", path, sum.Int(), a.Int(), b.Int(), want)
		}
	case reflect.Float64:
		want := a.Float() + b.Float()
		if path == "Counts.Weighted.MaxW" {
			want = max(a.Float(), b.Float())
		}
		if sum.Float() != want {
			t.Errorf("%s = %g after Add, want %g", path, sum.Float(), want)
		}
	}
}

// Counts.Add is the one merge every execution path shares (Run's workers,
// MergeShards, the serving front end's totals), so it must fold every
// field: each leaf of two Counts — nested DecoderStats and WeightedResult
// included — gets a distinct nonzero value, and each leaf of the sum must
// combine both. A counter added to Counts without a line in Add fails here.
func TestCountsAddCoversEveryField(t *testing.T) {
	var a, b Counts
	next := 1
	fillDistinct(t, reflect.ValueOf(&a).Elem(), &next)
	fillDistinct(t, reflect.ValueOf(&b).Elem(), &next)
	sum := a
	sum.Add(b)
	checkSum(t, "Counts", reflect.ValueOf(sum), reflect.ValueOf(a), reflect.ValueOf(b))
}
