//! Fixture: `#[cfg(test)]` items that end in `;` instead of a block.
//! This file is never compiled; it only feeds the scanner.

#[cfg(test)]
pub(crate) type JobKey = (u32, u32, u32);

pub fn pick(v: &[u32]) -> u32 {
    v[1]
}

pub mod non_cdn {
    #[cfg(test)]
    pub(crate) const H3_ADOPTION: f64 = 0.207;
    pub const TLS12_SHARES: [f64; 2] = [0.45, 0.55];
    pub const TLS12_SHARE: f64 = TLS12_SHARES[0];
}

#[cfg(test)]
mod tests {
    #[test]
    fn test_code_is_not_counted() {
        let v = vec![1u32];
        assert_eq!(v[0], Some(1).unwrap());
    }
}
