// Fixture: a well-formed suppression names a known rule and gives a reason.

pub fn fingerprint(k: usize) -> String {
    // lint:allow(debug-format): integer Debug output is its Display output
    format!("{:?}", k)
}

pub fn canonical(k: usize) -> String {
    format!("{:?}", k) // lint:allow(debug-format): same-line form of the annotation
}
