//! False-positive guard: a `HashMap` declared in test code does not make
//! its name unordered in the code under test, while a `HashMap` declared
//! there still fires.

use std::collections::HashMap;

fn total(keys: &[u64]) -> u64 {
    let mut sum = 0;
    for key in keys {
        sum += key;
    }
    sum
}

fn tally(counts: &HashMap<u64, u64>) -> u64 {
    let mut sum = 0;
    for (_, c) in counts.iter() {
        sum += c;
    }
    sum
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals() {
        let keys: HashMap<u64, u64> = HashMap::new();
        assert_eq!(total(&[1, 2]), 3);
        assert_eq!(tally(&keys), 0);
    }
}
