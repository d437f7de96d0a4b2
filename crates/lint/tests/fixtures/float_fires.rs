// Fixture: hash-map-order iteration feeding float accumulation.
// The map rule runs on every file, so any path will do.

use std::collections::HashMap;

pub struct Exporter {
    rates: HashMap<u64, f64>,
}

impl Exporter {
    pub fn total(&self) -> f64 {
        let mut total = 0.0;
        for (_token, rate) in self.rates.iter() { // line 13: fires
            total += rate;
        }
        total
    }

    pub fn visit(&self) {
        let index: HashMap<u32, u32> = HashMap::new();
        for entry in &index { // line 21: fires (for-loop over a map)
            let _ = entry;
        }
    }
}
