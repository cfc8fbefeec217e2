//go:build unix

package serve

import (
	"errors"
	"fmt"
	"os"
	"syscall"
)

// lockFile takes an exclusive non-blocking advisory lock on the state
// directory's lock file. The lock belongs to the open file description:
// Close (or process death, including SIGKILL) releases it, so no stale lock
// can strand a state directory. A directory already held by another server
// surfaces as ErrLocked.
func lockFile(f *os.File) error {
	err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB)
	if errors.Is(err, syscall.EWOULDBLOCK) || errors.Is(err, syscall.EAGAIN) {
		return fmt.Errorf("%w: %s", ErrLocked, f.Name())
	}
	if err != nil {
		return fmt.Errorf("serve: locking %s: %w", f.Name(), err)
	}
	return nil
}
