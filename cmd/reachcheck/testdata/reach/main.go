// Command reach is reachcheck's test fixture: a main package whose
// declarations cover each shape the gate maps to a linker name. Which of
// them the binary links is spelled out in reachcheck's main_test.go.
package main

import "fmt"

type T struct{ n int }

func (t T) Value() int { return t.n }

func (t *T) Pointer() int { return t.n }

func (t T) deadValue() int { return -t.n }

func (t *T) deadPointer() int { return -t.n }

func Gen[E any](e E) E { return e }

func deadGen[E any](e E) E { return e }

type Box[E any] struct{ v E }

func (b *Box[E]) Get() E { return b.v }

func (b Box[E]) deadPeek() E { return b.v }

func viaClosure() int { return 7 }

func exampleOnly() int { return 8 }

func dead() int { return 9 }

func main() {
	t := &T{n: 1}
	b := &Box[string]{v: "box"}
	f := func() int { return viaClosure() }
	fmt.Println(t.Value(), t.Pointer(), Gen(3), b.Get(), f())
}
