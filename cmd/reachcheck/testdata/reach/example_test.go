package main

import "fmt"

func Example_onlyHere() {
	fmt.Println(exampleOnly())
}
