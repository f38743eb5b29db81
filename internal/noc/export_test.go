package noc

// Arrived is the length of node's arrival port in n, one of the three
// models: a packet has reached it when the length grows across a Tick.
func Arrived(n Network, node int) int { return n.(interface{ arrived(int) int }).arrived(node) }

func (e *endpoints) arrived(node int) int { return e.arr[node].Len() }
