package main

import (
	"reflect"
	"testing"

	"crashresist/internal/targets"
)

func TestJobStreamIsSeeded(t *testing.T) {
	a, err := jobStream(7)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := jobStream(7)
	c, _ := jobStream(8)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave different job streams")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same job stream")
	}
	var paper, gen int
	seenTenant := map[string]bool{}
	for _, j := range a {
		seenTenant[j.Tenant] = true
		if _, ok := targets.ParseGenServerRef(j.Target); ok {
			gen++
		} else {
			paper++
			if j.Target == "cherokee" {
				t.Fatal("cherokee must stay out of the service stream")
			}
		}
	}
	if paper == 0 || gen == 0 || len(seenTenant) != len(tenants) {
		t.Fatalf("stream lacks variety: %d paper, %d generated, tenants %v", paper, gen, seenTenant)
	}
}

func TestDerivedSeedsAreSeeded(t *testing.T) {
	if !reflect.DeepEqual(deriveSeeds(7), deriveSeeds(7)) {
		t.Fatal("the same seed gave different derived seeds")
	}
	a, b := deriveSeeds(7), deriveSeeds(8)
	if a.Gen == b.Gen || a.Analysis(1) == b.Analysis(1) {
		t.Fatal("different seeds gave the same generated population or analysis seed")
	}
	if a.Analysis(1) == a.Analysis(2) {
		t.Fatal("consecutive passes share an analysis seed")
	}
	for i := 0; i < 100; i++ {
		if s := a.Analysis(i); s <= 0 {
			t.Fatalf("analysis seed %d is %d, want positive", i, s)
		}
	}
}
