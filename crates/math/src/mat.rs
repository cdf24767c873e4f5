//! Affine transform matrices.
//!
//! The Vulkan acceleration structure stores 4×3 row-major object-to-world and
//! world-to-object matrices in top-level leaf nodes (paper Fig. 7b). The RT
//! unit's transformation Operation Unit is "a simple matrix multiplier"
//! (§III-C4) applying these to rays when crossing from the TLAS into a BLAS.

use crate::{Ray, Vec3};

/// A 4×3 affine transform: a 3×3 linear part plus a translation column,
/// matching `VkTransformMatrixKHR` (row-major, 48 bytes).
///
/// # Example
///
/// ```
/// use vksim_math::{Mat4x3, Vec3};
/// let t = Mat4x3::translation(Vec3::new(1.0, 2.0, 3.0));
/// assert_eq!(t.transform_point(Vec3::ZERO), Vec3::new(1.0, 2.0, 3.0));
/// assert_eq!(t.transform_vector(Vec3::X), Vec3::X);
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Mat4x3 {
    /// Rows of the matrix; `rows[r][c]` with `c == 3` the translation.
    pub rows: [[f32; 4]; 3],
}

impl Default for Mat4x3 {
    fn default() -> Self {
        Self::IDENTITY
    }
}

impl Mat4x3 {
    /// The identity transform.
    pub const IDENTITY: Mat4x3 = Mat4x3 {
        rows: [
            [1.0, 0.0, 0.0, 0.0],
            [0.0, 1.0, 0.0, 0.0],
            [0.0, 0.0, 1.0, 0.0],
        ],
    };

    /// Creates a transform from explicit rows.
    pub const fn from_rows(rows: [[f32; 4]; 3]) -> Self {
        Mat4x3 { rows }
    }

    /// Pure translation.
    pub fn translation(t: Vec3) -> Self {
        Mat4x3 {
            rows: [
                [1.0, 0.0, 0.0, t.x],
                [0.0, 1.0, 0.0, t.y],
                [0.0, 0.0, 1.0, t.z],
            ],
        }
    }

    /// Non-uniform scale.
    pub fn scale(s: Vec3) -> Self {
        Mat4x3 {
            rows: [
                [s.x, 0.0, 0.0, 0.0],
                [0.0, s.y, 0.0, 0.0],
                [0.0, 0.0, s.z, 0.0],
            ],
        }
    }

    /// Rotation of `angle` radians about the Y axis.
    pub fn rotation_y(angle: f32) -> Self {
        let (s, c) = angle.sin_cos();
        Mat4x3 {
            rows: [[c, 0.0, s, 0.0], [0.0, 1.0, 0.0, 0.0], [-s, 0.0, c, 0.0]],
        }
    }

    /// Transforms a point (applies the linear part and translation).
    #[inline]
    pub fn transform_point(&self, p: Vec3) -> Vec3 {
        let r = &self.rows;
        Vec3::new(
            r[0][0] * p.x + r[0][1] * p.y + r[0][2] * p.z + r[0][3],
            r[1][0] * p.x + r[1][1] * p.y + r[1][2] * p.z + r[1][3],
            r[2][0] * p.x + r[2][1] * p.y + r[2][2] * p.z + r[2][3],
        )
    }

    /// Transforms a direction (linear part only, no translation).
    #[inline]
    pub fn transform_vector(&self, v: Vec3) -> Vec3 {
        let r = &self.rows;
        Vec3::new(
            r[0][0] * v.x + r[0][1] * v.y + r[0][2] * v.z,
            r[1][0] * v.x + r[1][1] * v.y + r[1][2] * v.z,
            r[2][0] * v.x + r[2][1] * v.y + r[2][2] * v.z,
        )
    }

    /// Transforms a ray: origin as a point, direction as a vector.
    ///
    /// This is the coordinate-system change applied when traversal descends
    /// from the TLAS into a BLAS instance (paper Algorithm 2, line 6). The
    /// direction is intentionally *not* re-normalized so that `t` values stay
    /// comparable across spaces.
    #[inline]
    pub fn transform_ray(&self, ray: &Ray) -> Ray {
        Ray {
            origin: self.transform_point(ray.origin),
            dir: self.transform_vector(ray.dir),
            t_min: ray.t_min,
            t_max: ray.t_max,
        }
    }

    /// Composition: `self * rhs` (apply `rhs` first).
    pub fn compose(&self, rhs: &Mat4x3) -> Mat4x3 {
        let mut out = [[0.0f32; 4]; 3];
        for (i, row) in out.iter_mut().enumerate() {
            for (j, cell) in row.iter_mut().enumerate() {
                let mut acc = 0.0;
                for k in 0..3 {
                    acc += self.rows[i][k] * rhs.rows[k][j];
                }
                if j == 3 {
                    acc += self.rows[i][3];
                }
                *cell = acc;
            }
        }
        Mat4x3 { rows: out }
    }

    /// Inverts the affine transform.
    ///
    /// Returns `None` if the linear part is singular (determinant ~ 0).
    pub fn inverse(&self) -> Option<Mat4x3> {
        let m = &self.rows;
        let a = m[0][0];
        let b = m[0][1];
        let c = m[0][2];
        let d = m[1][0];
        let e = m[1][1];
        let f = m[1][2];
        let g = m[2][0];
        let h = m[2][1];
        let i = m[2][2];
        let det = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g);
        if det.abs() < 1e-12 {
            return None;
        }
        let inv_det = 1.0 / det;
        // Inverse of the 3x3 linear part (adjugate / det).
        let lin = [
            [
                (e * i - f * h) * inv_det,
                (c * h - b * i) * inv_det,
                (b * f - c * e) * inv_det,
            ],
            [
                (f * g - d * i) * inv_det,
                (a * i - c * g) * inv_det,
                (c * d - a * f) * inv_det,
            ],
            [
                (d * h - e * g) * inv_det,
                (b * g - a * h) * inv_det,
                (a * e - b * d) * inv_det,
            ],
        ];
        // Inverse translation: -Linv * t
        let t = Vec3::new(m[0][3], m[1][3], m[2][3]);
        let mut rows = [[0.0f32; 4]; 3];
        for (r, lin_row) in lin.iter().enumerate() {
            rows[r][..3].copy_from_slice(lin_row);
            rows[r][3] = -(lin_row[0] * t.x + lin_row[1] * t.y + lin_row[2] * t.z);
        }
        Some(Mat4x3 { rows })
    }

    /// Serializes into 12 little-endian `f32` words (48 bytes), the layout
    /// used in BVH top-level leaf nodes.
    pub fn to_words(&self) -> [f32; 12] {
        let mut w = [0.0f32; 12];
        for r in 0..3 {
            w[r * 4..r * 4 + 4].copy_from_slice(&self.rows[r]);
        }
        w
    }
}

/// A full 4×4 matrix; used only for camera projection setup in workloads.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Mat4 {
    /// Row-major elements.
    pub rows: [[f32; 4]; 4],
}

impl Default for Mat4 {
    fn default() -> Self {
        Self::IDENTITY
    }
}

impl Mat4 {
    /// The identity matrix.
    pub const IDENTITY: Mat4 = Mat4 {
        rows: [
            [1.0, 0.0, 0.0, 0.0],
            [0.0, 1.0, 0.0, 0.0],
            [0.0, 0.0, 1.0, 0.0],
            [0.0, 0.0, 0.0, 1.0],
        ],
    };

    /// Right-handed perspective projection (vertical fov in radians).
    pub fn perspective(fov_y: f32, aspect: f32, near: f32, far: f32) -> Mat4 {
        let f = 1.0 / (fov_y / 2.0).tan();
        Mat4 {
            rows: [
                [f / aspect, 0.0, 0.0, 0.0],
                [0.0, f, 0.0, 0.0],
                [0.0, 0.0, far / (near - far), near * far / (near - far)],
                [0.0, 0.0, -1.0, 0.0],
            ],
        }
    }

    /// Right-handed look-at view matrix.
    pub fn look_at(eye: Vec3, center: Vec3, up: Vec3) -> Mat4 {
        let f = (center - eye).normalized();
        let s = f.cross(up).normalized();
        let u = s.cross(f);
        Mat4 {
            rows: [
                [s.x, s.y, s.z, -s.dot(eye)],
                [u.x, u.y, u.z, -u.dot(eye)],
                [-f.x, -f.y, -f.z, f.dot(eye)],
                [0.0, 0.0, 0.0, 1.0],
            ],
        }
    }

    /// Transforms a point with perspective divide.
    pub fn project_point(&self, p: Vec3) -> Vec3 {
        let r = &self.rows;
        let x = r[0][0] * p.x + r[0][1] * p.y + r[0][2] * p.z + r[0][3];
        let y = r[1][0] * p.x + r[1][1] * p.y + r[1][2] * p.z + r[1][3];
        let z = r[2][0] * p.x + r[2][1] * p.y + r[2][2] * p.z + r[2][3];
        let w = r[3][0] * p.x + r[3][1] * p.y + r[3][2] * p.z + r[3][3];
        Vec3::new(x / w, y / w, z / w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: Vec3, b: Vec3, eps: f32) {
        assert!((a - b).length() < eps, "{a} != {b}");
    }

    #[test]
    fn identity_is_noop() {
        let p = Vec3::new(1.0, -2.0, 3.5);
        assert_eq!(Mat4x3::IDENTITY.transform_point(p), p);
        assert_eq!(Mat4x3::IDENTITY.transform_vector(p), p);
    }

    #[test]
    fn translation_moves_points_not_vectors() {
        let t = Mat4x3::translation(Vec3::new(5.0, 0.0, 0.0));
        assert_eq!(t.transform_point(Vec3::ZERO), Vec3::new(5.0, 0.0, 0.0));
        assert_eq!(t.transform_vector(Vec3::Z), Vec3::Z);
    }

    #[test]
    fn scale_scales() {
        let s = Mat4x3::scale(Vec3::new(2.0, 3.0, 4.0));
        assert_eq!(s.transform_point(Vec3::ONE), Vec3::new(2.0, 3.0, 4.0));
    }

    #[test]
    fn rotation_y_quarter_turn() {
        let r = Mat4x3::rotation_y(std::f32::consts::FRAC_PI_2);
        assert_close(r.transform_vector(Vec3::X), -Vec3::Z, 1e-6);
        assert_close(r.transform_vector(Vec3::Z), Vec3::X, 1e-6);
    }

    #[test]
    fn compose_applies_rhs_first() {
        let t = Mat4x3::translation(Vec3::new(1.0, 0.0, 0.0));
        let s = Mat4x3::scale(Vec3::splat(2.0));
        // (s ∘ t)(p) = s(t(p))
        let st = s.compose(&t);
        assert_eq!(st.transform_point(Vec3::ZERO), Vec3::new(2.0, 0.0, 0.0));
        let ts = t.compose(&s);
        assert_eq!(ts.transform_point(Vec3::ZERO), Vec3::new(1.0, 0.0, 0.0));
    }

    #[test]
    fn inverse_roundtrips() {
        let m = Mat4x3::translation(Vec3::new(1.0, 2.0, 3.0))
            .compose(&Mat4x3::rotation_y(0.7))
            .compose(&Mat4x3::scale(Vec3::new(2.0, 1.0, 0.5)));
        let inv = m.inverse().expect("invertible");
        let p = Vec3::new(0.3, -0.9, 2.2);
        assert_close(inv.transform_point(m.transform_point(p)), p, 1e-4);
    }

    #[test]
    fn singular_matrix_has_no_inverse() {
        let m = Mat4x3::scale(Vec3::new(1.0, 0.0, 1.0));
        assert!(m.inverse().is_none());
    }

    #[test]
    fn transform_ray_moves_origin_and_dir() {
        let m = Mat4x3::translation(Vec3::new(0.0, 1.0, 0.0));
        let ray = Ray::new(Vec3::ZERO, Vec3::X);
        let out = m.transform_ray(&ray);
        assert_eq!(out.origin, Vec3::new(0.0, 1.0, 0.0));
        assert_eq!(out.dir, Vec3::X);
        assert_eq!(out.t_min, ray.t_min);
        assert_eq!(out.t_max, ray.t_max);
    }

    #[test]
    fn words_layout_is_row_major() {
        let m = Mat4x3::translation(Vec3::new(9.0, 8.0, 7.0));
        let w = m.to_words();
        assert_eq!(w[3], 9.0);
        assert_eq!(w[7], 8.0);
        assert_eq!(w[11], 7.0);
    }

    #[test]
    fn look_at_centers_target() {
        let v = Mat4::look_at(Vec3::new(0.0, 0.0, 5.0), Vec3::ZERO, Vec3::Y);
        let p = v.project_point(Vec3::ZERO);
        assert!(p.x.abs() < 1e-6 && p.y.abs() < 1e-6);
    }
}
