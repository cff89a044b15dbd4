package vtime

import (
	"testing"
	"testing/quick"
)

func TestArithmetic(t *testing.T) {
	var tm Time = 100
	if tm.Add(50) != 150 {
		t.Fatal("Add broken")
	}
	if Time(150).Sub(tm) != 50 {
		t.Fatal("Sub broken")
	}
	if !tm.Before(150) || tm.After(150) {
		t.Fatal("Before/After broken")
	}
	if Max(3, 5) != 5 || Min(3, 5) != 3 {
		t.Fatal("Max/Min broken")
	}
}

func TestStrings(t *testing.T) {
	if Time(7).String() != "7t" || Duration(9).String() != "9t" {
		t.Fatal("String broken")
	}
	if (Milli * 1000).Seconds() != 1.0 {
		t.Fatal("Seconds broken")
	}
}

// Add/Sub are inverses.
func TestAddSubQuick(t *testing.T) {
	f := func(base int32, d int32) bool {
		tm := Time(base)
		return tm.Add(Duration(d)).Sub(tm) == Duration(d)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
