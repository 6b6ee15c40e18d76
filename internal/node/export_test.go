package node

// DeclineStraightLine makes every operation of the node's streams take the
// blocking path through exec: the reference the stackless path is compared
// against.
func (n *Node) DeclineStraightLine() { n.declineStraight = true }
