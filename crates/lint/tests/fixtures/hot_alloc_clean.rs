// Fixture: a hot function that only reuses preallocated storage.

pub struct DirtySet {
    links: Vec<u32>,
    scratch: Vec<u32>,
}

impl DirtySet {
    // flowtune-lint: hot
    pub fn note_add(&mut self, link: u32) {
        self.scratch.clear();
        if let Some(slot) = self.links.iter_mut().find(|l| **l == link) {
            *slot = link;
        } else {
            self.scratch.push(link);
        }
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn allocating_in_tests_is_fine() {
        let v = vec![format!("tests may allocate")];
        assert_eq!(v.len(), 1);
    }
}
