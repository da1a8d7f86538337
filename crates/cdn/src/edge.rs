//! Edge-server cache misses.
//!
//! The paper visits each page twice: the first visit pulls resources from
//! origin into the edge cache, the second — the measured one — is served
//! from the warm edge. A warm edge costs nothing extra; a cold one
//! (`VisitConfig::cold_cache` in the browser) adds [`miss_penalty`] to
//! every CDN response's server processing.

use h3cdn_sim_core::SimDuration;

/// Extra processing a cache miss adds: the edge fetches from origin
/// before it can respond. One origin round trip plus origin service time.
pub fn miss_penalty(origin_rtt: SimDuration) -> SimDuration {
    origin_rtt + SimDuration::from_millis(5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_penalty_scales_with_origin_rtt() {
        let near = miss_penalty(SimDuration::from_millis(20));
        let far = miss_penalty(SimDuration::from_millis(120));
        assert_eq!(far - near, SimDuration::from_millis(100));
    }
}
