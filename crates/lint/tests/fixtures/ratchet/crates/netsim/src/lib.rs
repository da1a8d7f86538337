//! Fixture: panic-surface counting for the ratchet.
//! This file is never compiled; it only feeds the scanner.

fn two_unwraps(a: Option<u32>, b: Option<u32>) -> u32 {
    a.unwrap() + b.unwrap()
}

fn one_expect(a: Option<u32>) -> u32 {
    a.expect("present")
}

fn one_panic(x: u32) -> u32 {
    if x > 10 {
        panic!("too big");
    }
    x
}

fn three_indexings(v: &[u32], i: usize) -> u32 {
    v[i] + v[0] + v[i + 1]
}

fn three_asserts(a: u32, b: u32) {
    assert!(a > 0);
    assert_eq!(a, b);
    assert_ne!(a, 7);
    debug_assert!(b > 0);
    debug_assert_eq!(a, b);
    debug_assert_ne!(b, 7);
}

#[cfg(test)]
mod tests {
    #[test]
    fn test_code_is_not_counted() {
        let v = vec![1u32];
        assert_eq!(v[0], Some(1).unwrap());
        Some(2).expect("fine");
    }
}
