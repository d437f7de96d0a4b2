// Fixture: the same hot-function allocation, silenced by a justified
// suppression (trailing form and own-line form).

pub struct DirtySet {
    links: Vec<u32>,
}

impl DirtySet {
    // flowtune-lint: hot
    pub fn note_add(&mut self, link: u32) {
        let copy = self.links.to_vec(); // flowtune-lint: allow(hot-path-alloc, "one-shot resync copy, not per-tick")
        // flowtune-lint: allow(hot-path-alloc, "grows once then reused")
        let fresh: Vec<u32> = Vec::with_capacity(link as usize);
        drop((copy, fresh));
    }
}
