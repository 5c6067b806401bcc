//! Broken fixture for the panic-path audit: a bare unwrap, an indexing
//! site with a malformed suppression, and (negative cases) an unwrap
//! and a sleep inside test code that must NOT be flagged.

pub fn handle(v: Option<u32>) -> u32 {
    v.unwrap()
}

pub fn index(xs: &[u32]) -> u32 {
    xs[0] // lint: allow(panic)
}

#[cfg(test)]
mod tests {
    #[test]
    fn unwrap_in_tests_is_fine() {
        std::thread::sleep(std::time::Duration::from_millis(1));
        assert_eq!(super::handle(Some(1)), 1);
    }
}
