//! Interconnect topologies.
//!
//! The paper's machine uses a point-to-point network with a fixed traversal
//! delay (§4.2) — [`Topology::PointToPoint`]. As an extension, the
//! simulator also offers a 2-D mesh with dimension-ordered (X-then-Y)
//! routing, where distance costs hops and every traversed link is a
//! contention point; this lets the harness ask how the LS/AD traffic
//! reductions translate when link bandwidth, not just latency, is scarce.

use crate::NodeId;
/// Shape of the interconnect.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Topology {
    /// Fully connected, fixed one-traversal delay (the paper's network).
    PointToPoint,
    /// `width × ceil(nodes/width)` mesh, dimension-ordered routing, one
    /// `net` delay per hop.
    Mesh2D { width: u16 },
}

impl Topology {
    /// (x, y) position of a node in the mesh.
    fn coords(self, n: NodeId) -> (u16, u16) {
        match self {
            Topology::PointToPoint => (n.0, 0),
            Topology::Mesh2D { width } => (n.0 % width, n.0 / width),
        }
    }

    /// Number of link traversals between two nodes.
    pub fn hops(self, from: NodeId, to: NodeId) -> u64 {
        if from == to {
            return 0;
        }
        match self {
            Topology::PointToPoint => 1,
            Topology::Mesh2D { .. } => {
                let (fx, fy) = self.coords(from);
                let (tx, ty) = self.coords(to);
                (fx.abs_diff(tx) + fy.abs_diff(ty)) as u64
            }
        }
    }

    /// The sequence of directed links (as node pairs) a message traverses
    /// under dimension-ordered routing. Empty for a local transfer. An
    /// iterator, so the network's per-message path does not allocate.
    pub fn route(self, from: NodeId, to: NodeId) -> Route {
        Route {
            topology: self,
            cur: from,
            to,
        }
    }

    /// Validate against a node count.
    pub fn validate(self, nodes: u16) -> Result<(), String> {
        match self {
            Topology::PointToPoint => Ok(()),
            Topology::Mesh2D { width } => {
                if width == 0 {
                    Err("mesh width must be positive".into())
                } else if !nodes.is_multiple_of(width) {
                    Err(format!("{nodes} nodes do not fill a width-{width} mesh"))
                } else {
                    Ok(())
                }
            }
        }
    }
}

/// The links of one dimension-ordered route (X first, then Y), yielded
/// hop by hop. Built by [`Topology::route`].
#[derive(Clone, Copy, Debug)]
pub struct Route {
    topology: Topology,
    cur: NodeId,
    to: NodeId,
}

impl Iterator for Route {
    type Item = (NodeId, NodeId);

    fn next(&mut self) -> Option<(NodeId, NodeId)> {
        if self.cur == self.to {
            return None;
        }
        let next = match self.topology {
            Topology::PointToPoint => self.to,
            Topology::Mesh2D { width } => {
                let (x, y) = self.topology.coords(self.cur);
                let (tx, ty) = self.topology.coords(self.to);
                let step = |a: u16, b: u16| if a < b { a + 1 } else { a - 1 };
                if x != tx {
                    NodeId(y * width + step(x, tx))
                } else {
                    NodeId(step(y, ty) * width + x)
                }
            }
        };
        let link = (self.cur, next);
        self.cur = next;
        Some(link)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_to_point_is_always_one_hop() {
        let t = Topology::PointToPoint;
        assert_eq!(t.hops(NodeId(0), NodeId(3)), 1);
        assert_eq!(t.hops(NodeId(2), NodeId(2)), 0);
        assert!(t.route(NodeId(0), NodeId(3)).eq([(NodeId(0), NodeId(3))]));
    }

    #[test]
    fn mesh_manhattan_distance() {
        // 4x2 mesh: node ids 0..8; node n at (n%4, n/4).
        let t = Topology::Mesh2D { width: 4 };
        assert_eq!(t.hops(NodeId(0), NodeId(3)), 3);
        assert_eq!(t.hops(NodeId(0), NodeId(7)), 4);
        assert_eq!(t.hops(NodeId(5), NodeId(5)), 0);
        assert_eq!(t.hops(NodeId(1), NodeId(6)), 2);
    }

    #[test]
    fn mesh_routing_is_x_then_y() {
        let t = Topology::Mesh2D { width: 4 };
        let r: Vec<_> = t.route(NodeId(0), NodeId(6)).collect();
        // (0,0) -> (1,0) -> (2,0) -> (2,1).
        assert_eq!(
            r,
            vec![
                (NodeId(0), NodeId(1)),
                (NodeId(1), NodeId(2)),
                (NodeId(2), NodeId(6))
            ]
        );
        // Route length always equals hop count.
        for a in 0..8u16 {
            for b in 0..8u16 {
                assert_eq!(
                    t.route(NodeId(a), NodeId(b)).count() as u64,
                    t.hops(NodeId(a), NodeId(b))
                );
            }
        }
    }

    #[test]
    fn mesh_route_links_are_adjacent() {
        let t = Topology::Mesh2D { width: 4 };
        for a in 0..8u16 {
            for b in 0..8u16 {
                let mut cur = NodeId(a);
                for (f, to) in t.route(NodeId(a), NodeId(b)) {
                    assert_eq!(f, cur, "route must be contiguous");
                    assert_eq!(t.hops(f, to), 1, "each link is one hop");
                    cur = to;
                }
                if a != b {
                    assert_eq!(cur, NodeId(b), "route must end at the destination");
                }
            }
        }
    }

    #[test]
    fn validation() {
        assert!(Topology::PointToPoint.validate(7).is_ok());
        assert!(Topology::Mesh2D { width: 4 }.validate(8).is_ok());
        assert!(Topology::Mesh2D { width: 4 }.validate(6).is_err());
        assert!(Topology::Mesh2D { width: 0 }.validate(4).is_err());
    }
}
