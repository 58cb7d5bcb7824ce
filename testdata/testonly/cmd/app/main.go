package main

import (
	"errors"
	"fmt"

	"fixture/store"
)

func main() {
	fmt.Println(store.Book{}.Page(), store.Describe(store.Named{}), store.Level(1), errors.Unwrap(store.Fail()))
}
