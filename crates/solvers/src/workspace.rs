//! Automatic shared-memory configuration (paper Section IV.D).
//!
//! Krylov solvers keep several intermediate vectors per system. The
//! matrix and right-hand side always stay in global memory (read-only,
//! L1-cached), but the read-write intermediates profit from local shared
//! memory. Vectors involved in matrix–vector products (Algorithm 1's
//! red vectors) are placed first; other intermediates (blue) next;
//! whatever does not fit spills to global memory.
//!
//! On the V100 with `n = 992` and BiCGSTAB's 9 vectors, a 48 KiB dynamic
//! shared budget places 6 vectors in shared memory and spills 3 — the
//! exact split quoted in the paper.

use batsolv_blas::counts::MemSpace;
use batsolv_types::Scalar;

/// Placement priority class of a solver vector.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VectorClass {
    /// Operand or result of an SpMV ("red" in Algorithm 1) — placed first.
    SpMV,
    /// Any other intermediate ("blue") — placed if space remains.
    Other,
}

/// A named solver vector and its priority class.
#[derive(Clone, Copy, Debug)]
pub struct VectorSpec {
    /// Vector name as in Algorithm 1 (`"r"`, `"p_hat"`, ...).
    pub name: &'static str,
    /// Priority class.
    pub class: VectorClass,
}

impl VectorSpec {
    /// Convenience constructor.
    pub const fn new(name: &'static str, class: VectorClass) -> Self {
        VectorSpec { name, class }
    }
}

/// The outcome of workspace planning for one solver configuration.
#[derive(Clone, Debug)]
pub struct WorkspacePlan {
    /// `(name, space)` for every vector, in the solver's declared order.
    pub placements: Vec<(&'static str, MemSpace)>,
    /// Total dynamic shared memory used per block, bytes.
    pub shared_bytes: usize,
    /// Bytes each vector occupies.
    pub bytes_per_vector: usize,
}

impl WorkspacePlan {
    /// Greedy plan: fill the budget with SpMV-class vectors first (in
    /// declaration order), then the rest.
    ///
    /// The paper's V100 example — 48 KiB of dynamic shared memory and
    /// `n = 992` fits 6 of BiCGSTAB's 9 vectors:
    ///
    /// ```
    /// use batsolv_solvers::workspace::{WorkspacePlan, BICGSTAB_VECTORS};
    /// let plan = WorkspacePlan::plan::<f64>(48 * 1024, 992, &BICGSTAB_VECTORS);
    /// assert_eq!(plan.num_shared(), 6);
    /// assert_eq!(plan.num_global(), 3);
    /// ```
    pub fn plan<T: Scalar>(budget_bytes: usize, n: usize, vectors: &[VectorSpec]) -> Self {
        let per_vec = n * T::BYTES;
        let mut shared_bytes = 0usize;
        let mut placements: Vec<(&'static str, MemSpace)> =
            vectors.iter().map(|v| (v.name, MemSpace::Global)).collect();
        for pass in [VectorClass::SpMV, VectorClass::Other] {
            for (k, v) in vectors.iter().enumerate() {
                if v.class != pass {
                    continue;
                }
                if shared_bytes + per_vec <= budget_bytes {
                    placements[k].1 = MemSpace::Shared;
                    shared_bytes += per_vec;
                }
            }
        }
        WorkspacePlan {
            placements,
            shared_bytes,
            bytes_per_vector: per_vec,
        }
    }

    /// Placement of the vector at declared index `k`.
    #[inline]
    pub fn space(&self, k: usize) -> MemSpace {
        self.placements[k].1
    }

    /// Placement of a vector by name (panics if unknown — solver bug).
    pub fn space_of(&self, name: &str) -> MemSpace {
        self.placements
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, s)| *s)
            .unwrap_or_else(|| panic!("unknown workspace vector {name}"))
    }

    /// Number of vectors in shared memory.
    pub fn num_shared(&self) -> usize {
        self.placements
            .iter()
            .filter(|(_, s)| *s == MemSpace::Shared)
            .count()
    }

    /// Number of vectors spilled to global memory.
    pub fn num_global(&self) -> usize {
        self.placements.len() - self.num_shared()
    }

    /// Bytes of spilled (global) vector storage per system.
    pub fn global_vector_bytes(&self) -> usize {
        self.num_global() * self.bytes_per_vector
    }

    /// One-line description for reports, e.g.
    /// `"6 shared (r,r_hat,p,p_hat,v,s) + 3 global (s_hat,t,x)"`.
    pub fn describe(&self) -> String {
        let list = |space: MemSpace| -> String {
            self.placements
                .iter()
                .filter(|(_, s)| *s == space)
                .map(|(n, _)| *n)
                .collect::<Vec<_>>()
                .join(",")
        };
        format!(
            "{} shared ({}) + {} global ({})",
            self.num_shared(),
            list(MemSpace::Shared),
            self.num_global(),
            list(MemSpace::Global)
        )
    }
}

/// The 9 vectors of the paper's BiCGSTAB (Algorithm 1). Red (SpMV)
/// vectors first within their class: `p̂`, `v`, `ŝ`, `t` carry the two
/// matrix–vector products per iteration; `r` is listed first among the
/// blues because the residual update benefits most.
pub const BICGSTAB_VECTORS: [VectorSpec; 9] = [
    VectorSpec::new("p_hat", VectorClass::SpMV),
    VectorSpec::new("v", VectorClass::SpMV),
    VectorSpec::new("s_hat", VectorClass::SpMV),
    VectorSpec::new("t", VectorClass::SpMV),
    VectorSpec::new("r", VectorClass::Other),
    VectorSpec::new("r_hat", VectorClass::Other),
    VectorSpec::new("p", VectorClass::Other),
    VectorSpec::new("s", VectorClass::Other),
    VectorSpec::new("x", VectorClass::Other),
];

/// The 4 vectors of batched CG: `p` and `q = A·p` are the SpMV pair.
pub const CG_VECTORS: [VectorSpec; 4] = [
    VectorSpec::new("p", VectorClass::SpMV),
    VectorSpec::new("q", VectorClass::SpMV),
    VectorSpec::new("r", VectorClass::Other),
    VectorSpec::new("z", VectorClass::Other),
];

/// The 10 vectors of pipelined CG (Ghysels–Vanroose recurrences): `m` and
/// `n = A·m` carry the single SpMV; the recurrence vectors `z`, `q`, `s`
/// follow `w`, `u`, `r` so the fused reduction reads shared operands.
pub const PIPELINED_CG_VECTORS: [VectorSpec; 10] = [
    VectorSpec::new("m", VectorClass::SpMV),
    VectorSpec::new("n", VectorClass::SpMV),
    VectorSpec::new("r", VectorClass::Other),
    VectorSpec::new("u", VectorClass::Other),
    VectorSpec::new("w", VectorClass::Other),
    VectorSpec::new("z", VectorClass::Other),
    VectorSpec::new("q", VectorClass::Other),
    VectorSpec::new("s", VectorClass::Other),
    VectorSpec::new("p", VectorClass::Other),
    VectorSpec::new("x", VectorClass::Other),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn v100_places_6_of_9_for_n992() {
        // The paper's example: on V100, 6 vectors in shared, 3 in global.
        let plan = WorkspacePlan::plan::<f64>(48 * 1024, 992, &BICGSTAB_VECTORS);
        assert_eq!(plan.num_shared(), 6);
        assert_eq!(plan.num_global(), 3);
        // All four SpMV vectors made it into shared memory.
        for name in ["p_hat", "v", "s_hat", "t"] {
            assert_eq!(plan.space_of(name), MemSpace::Shared, "{name}");
        }
        assert!(plan.shared_bytes <= 48 * 1024);
    }

    #[test]
    fn a100_fits_all_nine() {
        let plan = WorkspacePlan::plan::<f64>(96 * 1024, 992, &BICGSTAB_VECTORS);
        assert_eq!(plan.num_shared(), 9);
        assert_eq!(plan.num_global(), 0);
    }

    #[test]
    fn mi100_fits_eight() {
        // 64 KiB LDS, 7.75 KiB per vector → 8 vectors.
        let plan = WorkspacePlan::plan::<f64>(64 * 1024, 992, &BICGSTAB_VECTORS);
        assert_eq!(plan.num_shared(), 8);
    }

    #[test]
    fn zero_budget_spills_everything() {
        let plan = WorkspacePlan::plan::<f64>(0, 992, &BICGSTAB_VECTORS);
        assert_eq!(plan.num_shared(), 0);
        assert_eq!(plan.global_vector_bytes(), 9 * 992 * 8);
    }

    #[test]
    fn red_before_blue_even_if_declared_later() {
        // A tiny budget fits exactly one vector: it must be an SpMV one.
        let vecs = [
            VectorSpec::new("blue1", VectorClass::Other),
            VectorSpec::new("red1", VectorClass::SpMV),
        ];
        let plan = WorkspacePlan::plan::<f64>(100 * 8, 100, &vecs);
        assert_eq!(plan.space_of("red1"), MemSpace::Shared);
        assert_eq!(plan.space_of("blue1"), MemSpace::Global);
    }

    #[test]
    fn f32_fits_twice_as_many() {
        let plan64 = WorkspacePlan::plan::<f64>(32 * 1024, 992, &BICGSTAB_VECTORS);
        let plan32 = WorkspacePlan::plan::<f32>(32 * 1024, 992, &BICGSTAB_VECTORS);
        assert!(plan32.num_shared() >= 2 * plan64.num_shared() - 1);
    }

    #[test]
    fn describe_is_readable() {
        let plan = WorkspacePlan::plan::<f64>(48 * 1024, 992, &BICGSTAB_VECTORS);
        let d = plan.describe();
        assert!(d.starts_with("6 shared"));
        assert!(d.contains("p_hat"));
        assert!(d.contains("3 global"));
    }
}
