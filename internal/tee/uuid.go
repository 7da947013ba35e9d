package tee

import "fmt"

// UUID identifies a Trusted Application, following the OP-TEE convention of
// addressing TAs by a 128-bit identifier.
type UUID [16]byte

// String renders the UUID in canonical 8-4-4-4-12 form.
func (u UUID) String() string {
	return fmt.Sprintf("%x-%x-%x-%x-%x", u[0:4], u[4:6], u[6:8], u[8:10], u[10:16])
}
