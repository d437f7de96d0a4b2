// Fixture: allocating calls inside a function marked hot. The marker,
// not the path it is linted under, puts `note_add` in scope.

pub struct DirtySet {
    links: Vec<u32>,
}

impl DirtySet {
    // flowtune-lint: hot
    #[inline]
    pub fn note_add(&mut self, link: u32) {
        let label = format!("link {link}"); // line 12: fires
        let copy = self.links.to_vec(); // line 13: fires
        let fresh: Vec<u32> = Vec::new(); // line 14: fires
        drop((label, copy, fresh));
    }

    pub fn cold_setup(&mut self) {
        // Not a hot function: allocation here is fine.
        self.links = Vec::with_capacity(64);
    }
}
