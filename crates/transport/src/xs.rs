//! Multigroup cross sections and material assignment.
//!
//! The solver treats scattering as isotropic and within-group (the
//! coupling between groups happens across source iterations through the
//! fission/downscatter-free fixed-source form used by the Kobayashi
//! benchmark; JSNT-U's 4-group runs are modelled as four independent
//! within-group problems swept together in one pass, which is exactly
//! how they load the sweep scheduler).

/// One material's multigroup data.
#[derive(Debug, Clone, PartialEq)]
pub struct Material {
    /// Total macroscopic cross section per group (1/cm).
    pub sigma_t: Vec<f64>,
    /// Within-group isotropic scattering cross section per group (1/cm).
    pub sigma_s: Vec<f64>,
    /// External volumetric source per group (n/cm³/s).
    pub source: Vec<f64>,
}

impl Material {
    /// A material with identical data in every group.
    pub fn uniform(groups: usize, sigma_t: f64, sigma_s: f64, source: f64) -> Material {
        assert!(groups > 0);
        assert!(sigma_t >= 0.0 && sigma_s >= 0.0 && source >= 0.0);
        assert!(
            sigma_s <= sigma_t || sigma_t == 0.0,
            "scattering ratio above one is non-physical (σs {sigma_s} > σt {sigma_t})"
        );
        Material {
            sigma_t: vec![sigma_t; groups],
            sigma_s: vec![sigma_s; groups],
            source: vec![source; groups],
        }
    }

    /// Number of energy groups.
    pub fn num_groups(&self) -> usize {
        self.sigma_t.len()
    }
}

/// A set of materials plus the per-cell material map. The default is
/// the empty set: no materials, covering no cells.
#[derive(Debug, Clone, Default)]
pub struct MaterialSet {
    materials: Vec<Material>,
    cell_material: Vec<u16>,
    num_groups: usize,
}

impl MaterialSet {
    /// Build from materials and a per-cell assignment.
    ///
    /// # Panics
    /// Panics when group counts disagree or an assignment is out of
    /// range.
    pub fn new(materials: Vec<Material>, cell_material: Vec<u16>) -> MaterialSet {
        assert!(!materials.is_empty(), "no materials");
        let num_groups = materials[0].num_groups();
        for (i, m) in materials.iter().enumerate() {
            assert_eq!(
                m.num_groups(),
                num_groups,
                "material {i} has inconsistent group count"
            );
        }
        for (c, &m) in cell_material.iter().enumerate() {
            assert!(
                (m as usize) < materials.len(),
                "cell {c}: material {m} out of range"
            );
        }
        MaterialSet {
            materials,
            cell_material,
            num_groups,
        }
    }

    /// One uniform material everywhere.
    pub fn homogeneous(num_cells: usize, material: Material) -> MaterialSet {
        MaterialSet::new(vec![material], vec![0; num_cells])
    }

    /// Number of energy groups.
    pub fn num_groups(&self) -> usize {
        self.num_groups
    }

    /// Number of cells covered.
    pub fn num_cells(&self) -> usize {
        self.cell_material.len()
    }

    /// Material of a cell.
    #[inline]
    pub fn material(&self, cell: usize) -> &Material {
        &self.materials[self.cell_material[cell] as usize]
    }

    /// Material index of a cell.
    #[inline]
    pub fn material_index(&self, cell: usize) -> u16 {
        self.cell_material[cell]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_material() {
        let m = Material::uniform(3, 1.0, 0.5, 2.0);
        assert_eq!(m.num_groups(), 3);
        assert_eq!(m.sigma_t, vec![1.0; 3]);
    }

    #[test]
    fn homogeneous_set() {
        let set = MaterialSet::homogeneous(10, Material::uniform(2, 1.0, 0.3, 0.0));
        assert_eq!(set.num_cells(), 10);
        assert_eq!(set.num_groups(), 2);
        assert_eq!(set.material(7).sigma_s, vec![0.3, 0.3]);
    }

    #[test]
    fn per_cell_assignment() {
        let a = Material::uniform(1, 1.0, 0.0, 1.0);
        let b = Material::uniform(1, 2.0, 0.0, 0.0);
        let set = MaterialSet::new(vec![a, b], vec![0, 1, 1]);
        assert_eq!(set.material(0).sigma_t[0], 1.0);
        assert_eq!(set.material(2).sigma_t[0], 2.0);
        assert_eq!(set.material_index(1), 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_assignment_rejected() {
        MaterialSet::new(vec![Material::uniform(1, 1.0, 0.0, 0.0)], vec![0, 3]);
    }

    #[test]
    #[should_panic(expected = "non-physical")]
    fn super_unity_scattering_rejected() {
        Material::uniform(1, 1.0, 1.5, 0.0);
    }
}
