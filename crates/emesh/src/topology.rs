//! Mesh geometry: node identifiers, coordinates and adjacency.

use std::fmt;

/// A core/router index in row-major order (`y * cols + x`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u16);

impl NodeId {
    /// Raw index.
    #[inline]
    pub fn raw(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Integer mesh coordinates; `(0, 0)` is the north-west corner, x grows
/// east and y grows south (matches the E16G3 core numbering).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Coord {
    /// Column (east-west position).
    pub x: u16,
    /// Row (north-south position).
    pub y: u16,
}

impl Coord {
    /// Manhattan distance to `other` — equals the XY-routed hop count
    /// between routers (excluding injection/ejection).
    pub fn manhattan(self, other: Coord) -> u32 {
        self.x.abs_diff(other.x) as u32 + self.y.abs_diff(other.y) as u32
    }
}

impl fmt::Display for Coord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({},{})", self.x, self.y)
    }
}

/// A rectangular 2D mesh.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mesh2D {
    cols: u16,
    rows: u16,
}

impl Mesh2D {
    /// Create a `cols x rows` mesh.
    ///
    /// # Panics
    /// If either dimension is zero.
    pub fn new(cols: u16, rows: u16) -> Mesh2D {
        assert!(cols > 0 && rows > 0, "mesh dimensions must be positive");
        Mesh2D { cols, rows }
    }

    /// The 4x4 E16G3 mesh.
    pub fn e16g3() -> Mesh2D {
        Mesh2D::new(4, 4)
    }

    /// Number of columns.
    pub fn cols(&self) -> u16 {
        self.cols
    }

    /// Number of rows.
    pub fn rows(&self) -> u16 {
        self.rows
    }

    /// Total node count.
    pub fn len(&self) -> usize {
        self.cols as usize * self.rows as usize
    }

    /// Whether the mesh has zero nodes (never true — kept for clippy).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Node at `coord`.
    ///
    /// # Panics
    /// If `coord` is outside the mesh.
    pub fn node(&self, coord: Coord) -> NodeId {
        assert!(self.contains(coord), "{coord} outside {self:?}");
        NodeId(coord.y * self.cols + coord.x)
    }

    /// Coordinates of `node`.
    ///
    /// # Panics
    /// If `node` is outside the mesh.
    pub fn coord(&self, node: NodeId) -> Coord {
        assert!((node.raw()) < self.len(), "{node} outside {self:?}");
        Coord {
            x: node.0 % self.cols,
            y: node.0 / self.cols,
        }
    }

    /// Whether `coord` lies inside the mesh.
    pub fn contains(&self, coord: Coord) -> bool {
        coord.x < self.cols && coord.y < self.rows
    }

    /// All nodes in row-major order.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.len() as u16).map(NodeId)
    }

    /// `(x, y)` of the row-major node index `id`.
    ///
    /// Shared coordinate helper: every layer that reasons about node
    /// positions (program models, placement lints, the cost model, the
    /// placement autotuner) derives coordinates from here so they can
    /// never disagree about the geometry.
    ///
    /// # Panics
    /// If `id` is outside the mesh.
    pub fn xy(&self, id: usize) -> (u16, u16) {
        let c = self.coord(NodeId(u16::try_from(id).expect("node id fits u16")));
        (c.x, c.y)
    }

    /// XY-routed hop count between the row-major node indices `a` and
    /// `b` (the Manhattan distance; injection/ejection excluded).
    ///
    /// # Panics
    /// If either id is outside the mesh.
    pub fn hops(&self, a: usize, b: usize) -> u16 {
        let (dx, dy) = self.xy_legs(a, b);
        dx + dy
    }

    /// The two legs of the dimension-ordered XY route between the
    /// row-major node indices `a` and `b`: `(|dx|, |dy|)` — first along
    /// x, then along y.
    ///
    /// # Panics
    /// If either id is outside the mesh.
    pub fn xy_legs(&self, a: usize, b: usize) -> (u16, u16) {
        let (ax, ay) = self.xy(a);
        let (bx, by) = self.xy(b);
        (ax.abs_diff(bx), ay.abs_diff(by))
    }

    /// The node whose east edge hosts the off-chip eLink on the E16G3
    /// evaluation board: the east-most node of row 2 in a 4x4 array
    /// (clamped for other sizes).
    pub fn elink_node(&self) -> NodeId {
        let y = (self.rows / 2).min(self.rows - 1);
        self.node(Coord {
            x: self.cols - 1,
            y,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_coord_roundtrip() {
        let m = Mesh2D::e16g3();
        assert_eq!(m.len(), 16);
        for n in m.nodes() {
            assert_eq!(m.node(m.coord(n)), n);
        }
        assert_eq!(m.node(Coord { x: 3, y: 2 }), NodeId(11));
        assert_eq!(m.coord(NodeId(11)), Coord { x: 3, y: 2 });
    }

    #[test]
    fn manhattan_distance() {
        let a = Coord { x: 0, y: 0 };
        let b = Coord { x: 3, y: 2 };
        assert_eq!(a.manhattan(b), 5);
        assert_eq!(b.manhattan(a), 5);
        assert_eq!(a.manhattan(a), 0);
    }

    #[test]
    fn id_level_helpers_match_coord_arithmetic() {
        let m = Mesh2D::new(5, 3);
        for a in m.nodes() {
            for b in m.nodes() {
                let d = m.coord(a).manhattan(m.coord(b));
                assert_eq!(u32::from(m.hops(a.raw(), b.raw())), d);
                let (dx, dy) = m.xy_legs(a.raw(), b.raw());
                assert_eq!(u32::from(dx) + u32::from(dy), d);
            }
        }
        assert_eq!(m.xy(7), (2, 1));
    }

    #[test]
    fn elink_sits_on_east_edge() {
        let m = Mesh2D::e16g3();
        let c = m.coord(m.elink_node());
        assert_eq!(c.x, 3);
        let one = Mesh2D::new(1, 1);
        assert_eq!(one.elink_node(), NodeId(0));
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn out_of_mesh_coord_panics() {
        let m = Mesh2D::e16g3();
        let _ = m.node(Coord { x: 4, y: 0 });
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_mesh_rejected() {
        let _ = Mesh2D::new(0, 4);
    }
}
