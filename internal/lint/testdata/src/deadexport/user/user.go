// Package user is the caller side of the deadexport fixture.
package user

import (
	"fmt"

	"deadexport"
)

func use() {
	v := deadexport.NewValue(deadexport.Helper())
	get := v.Get
	fmt.Println(get(), v, deadexport.Generic(3))
	var x any = v
	if c, ok := x.(interface{ Close() error }); ok {
		_ = c.Close()
	}
}
