//go:build !unix

package serve

import "os"

// lockFile is a no-op on platforms without flock semantics: state-directory
// exclusivity degrades to the caller's discipline (never run two servers on
// one state directory).
func lockFile(*os.File) error { return nil }
