//! Dimension-ordered (XY) routing and the link table.
//!
//! The eMesh routes a transaction fully along X (east/west) and then
//! along Y (north/south); this is deadlock-free on a mesh and is what
//! the distributed address-based routing of the Epiphany implements.
//!
//! Every router has one output link per [`Direction`], and every
//! per-link table — the fabric's link FIFOs, wire bytes and busy-cycle
//! snapshots, the cost model's tallies — is indexed by [`link_index`]:
//! `node * 4 + direction`. [`RouteIter`] is the one XY walker; each hop
//! it yields carries its link index.

use desim::trace::MeshKind;

use crate::topology::{Coord, Mesh2D, NodeId};

/// One of a router's four output directions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Toward decreasing x.
    West,
    /// Toward increasing x.
    East,
    /// Toward decreasing y.
    North,
    /// Toward increasing y.
    South,
}

impl Direction {
    /// All four directions, in link-table order.
    pub const ALL: [Direction; 4] = [
        Direction::West,
        Direction::East,
        Direction::North,
        Direction::South,
    ];

    /// Position in [`Direction::ALL`] (also the trace's direction
    /// index, [`desim::trace::direction_letter`]).
    pub fn index(self) -> usize {
        self as usize
    }
}

/// The link-table index of the link leaving `node` toward `dir`.
pub fn link_index(node: NodeId, dir: Direction) -> usize {
    node.raw() * Direction::ALL.len() + dir.index()
}

/// The `(node, direction)` of link-table index `link`.
pub(crate) fn link_at(link: usize) -> (NodeId, Direction) {
    let per_node = Direction::ALL.len();
    let node = u16::try_from(link / per_node).expect("node id fits u16");
    (NodeId(node), Direction::ALL[link % per_node])
}

/// Entries in one mesh's link table.
pub fn link_count(mesh: &Mesh2D) -> usize {
    mesh.len() * Direction::ALL.len()
}

/// The index of link `link` of mesh `kind` in the whole fabric's link
/// table: the three meshes' tables concatenated in [`MeshKind::ALL`]
/// order, so entries run by mesh, then node, then direction.
pub fn fabric_link_index(mesh: &Mesh2D, kind: MeshKind, link: usize) -> usize {
    kind.index() * link_count(mesh) + link
}

/// A directed link in the mesh, identified by the router it leaves and
/// the direction it leaves in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Hop {
    /// Coordinates of the router the link exits.
    pub from: Coord,
    /// The router the link exits.
    pub node: NodeId,
    /// Exit direction.
    pub dir: Direction,
}

impl Hop {
    /// This link's [`link_index`].
    pub fn link(self) -> usize {
        link_index(self.node, self.dir)
    }
}

/// Allocation-free walker over the XY route from `src` to `dst`: an
/// exact-size iterator yielding each directed link in traversal order
/// (fully along X, then along Y). An exhausted-immediately iterator
/// means `src == dst` (local delivery without touching the mesh).
///
/// The node index steps with the coordinates (east `+1`, west `-1`,
/// south `+cols`, north `-cols`), so a hop's link index costs no
/// coordinate-to-node arithmetic. This is the only XY walk: the
/// fabric's transfers and the static cost model iterate it, and
/// [`route_xy`] collects it for callers that want the list.
#[derive(Debug, Clone)]
pub struct RouteIter {
    cur: Coord,
    node: u16,
    dst: Coord,
    cols: u16,
}

impl RouteIter {
    /// Walker from node `src` to node `dst`.
    ///
    /// # Panics
    /// If either node is outside `mesh`.
    pub fn new(mesh: &Mesh2D, src: NodeId, dst: NodeId) -> RouteIter {
        RouteIter {
            cur: mesh.coord(src),
            node: src.0,
            dst: mesh.coord(dst),
            cols: mesh.cols(),
        }
    }
}

impl Iterator for RouteIter {
    type Item = Hop;

    fn next(&mut self) -> Option<Hop> {
        let (from, node, dst) = (self.cur, NodeId(self.node), self.dst);
        let dir = if from.x < dst.x {
            self.cur.x += 1;
            self.node += 1;
            Direction::East
        } else if from.x > dst.x {
            self.cur.x -= 1;
            self.node -= 1;
            Direction::West
        } else if from.y < dst.y {
            self.cur.y += 1;
            self.node += self.cols;
            Direction::South
        } else if from.y > dst.y {
            self.cur.y -= 1;
            self.node -= self.cols;
            Direction::North
        } else {
            return None;
        };
        Some(Hop { from, node, dir })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.cur.manhattan(self.dst) as usize;
        (n, Some(n))
    }
}

impl ExactSizeIterator for RouteIter {}

/// Compute the XY route from `src` to `dst` as the ordered list of
/// directed links traversed. An empty route means `src == dst` (local
/// delivery without touching the mesh).
///
/// # Panics
/// If either endpoint is outside `mesh`.
pub fn route_xy(mesh: &Mesh2D, src: Coord, dst: Coord) -> Vec<Hop> {
    RouteIter::new(mesh, mesh.node(src), mesh.node(dst)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mesh() -> Mesh2D {
        Mesh2D::e16g3()
    }

    #[test]
    fn route_length_is_manhattan_distance() {
        let m = mesh();
        for s in m.nodes() {
            for d in m.nodes() {
                let (sc, dc) = (m.coord(s), m.coord(d));
                assert_eq!(route_xy(&m, sc, dc).len() as u32, sc.manhattan(dc));
            }
        }
    }

    #[test]
    fn route_goes_x_first() {
        let m = mesh();
        let hops = route_xy(&m, Coord { x: 0, y: 0 }, Coord { x: 2, y: 2 });
        assert_eq!(hops.len(), 4);
        assert_eq!(hops[0].dir, Direction::East);
        assert_eq!(hops[1].dir, Direction::East);
        assert_eq!(hops[2].dir, Direction::South);
        assert_eq!(hops[3].dir, Direction::South);
        assert_eq!(hops[0].from, Coord { x: 0, y: 0 });
        assert_eq!(hops[2].from, Coord { x: 2, y: 0 });
    }

    #[test]
    fn reverse_route_uses_opposite_directions() {
        let m = mesh();
        let hops = route_xy(&m, Coord { x: 3, y: 3 }, Coord { x: 1, y: 1 });
        assert!(hops.iter().take(2).all(|h| h.dir == Direction::West));
        assert!(hops.iter().skip(2).all(|h| h.dir == Direction::North));
    }

    #[test]
    fn self_route_is_empty() {
        let m = mesh();
        let c = Coord { x: 2, y: 1 };
        assert!(route_xy(&m, c, c).is_empty());
    }

    #[test]
    fn route_iter_is_exact_size_and_matches_collected_route() {
        let m = mesh();
        for s in m.nodes() {
            for d in m.nodes() {
                let (sc, dc) = (m.coord(s), m.coord(d));
                let it = RouteIter::new(&m, s, d);
                assert_eq!(it.len() as u32, sc.manhattan(dc));
                let walked: Vec<Hop> = it.collect();
                assert_eq!(walked, route_xy(&m, sc, dc));
            }
        }
    }

    #[test]
    fn direction_indices_are_distinct() {
        let mut seen = [false; 4];
        for d in Direction::ALL {
            assert!(!seen[d.index()]);
            seen[d.index()] = true;
        }
    }

    /// The XY route as `(router, direction)` pairs, stepped out on
    /// coordinates alone.
    fn xy_by_coordinates(mesh: &Mesh2D, src: Coord, dst: Coord) -> Vec<(NodeId, Direction)> {
        let mut out = Vec::new();
        let mut c = src;
        while c.x != dst.x {
            let east = dst.x > c.x;
            out.push((
                mesh.node(c),
                if east {
                    Direction::East
                } else {
                    Direction::West
                },
            ));
            c.x = if east { c.x + 1 } else { c.x - 1 };
        }
        while c.y != dst.y {
            let south = dst.y > c.y;
            out.push((
                mesh.node(c),
                if south {
                    Direction::South
                } else {
                    Direction::North
                },
            ));
            c.y = if south { c.y + 1 } else { c.y - 1 };
        }
        out
    }

    #[test]
    fn route_link_indices_map_back_to_the_route_hops() {
        for m in [Mesh2D::e16g3(), Mesh2D::new(8, 8), Mesh2D::new(5, 3)] {
            for s in m.nodes() {
                for d in m.nodes() {
                    let (sc, dc) = (m.coord(s), m.coord(d));
                    let links: Vec<usize> = RouteIter::new(&m, s, d).map(Hop::link).collect();
                    let hops = route_xy(&m, sc, dc);
                    let back: Vec<(NodeId, Direction)> =
                        links.iter().map(|&l| link_at(l)).collect();
                    let named: Vec<(NodeId, Direction)> =
                        hops.iter().map(|h| (m.node(h.from), h.dir)).collect();
                    assert_eq!(back, named, "{s} -> {d} on {m:?}");
                    assert_eq!(back, xy_by_coordinates(&m, sc, dc), "{s} -> {d} on {m:?}");
                    assert!(links.iter().all(|&l| l < link_count(&m)));
                }
            }
        }
    }

    #[test]
    fn fabric_link_table_runs_by_mesh_then_node_then_direction() {
        let m = Mesh2D::new(5, 3);
        let mut next = 0;
        for kind in MeshKind::ALL {
            for node in m.nodes() {
                for dir in Direction::ALL {
                    assert_eq!(fabric_link_index(&m, kind, link_index(node, dir)), next);
                    assert_eq!(link_at(link_index(node, dir)), (node, dir));
                    next += 1;
                }
            }
        }
        assert_eq!(next, MeshKind::ALL.len() * link_count(&m));
    }
}
