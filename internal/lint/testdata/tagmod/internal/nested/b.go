// Package nested is the root of a module nested inside tagmod, which
// `./...` stops at: its import of other/a resolves only inside the
// nested module, so loading it as part of tagmod would fail.
package nested

import "other/a"

const B = a.A
