//! An artifact-writing binary that exits with magic numbers instead of
//! the shared exit constants.

fn main() { //~ artifact-contract
    crate::write::save_stamped("out.json", 7);
    std::process::exit(0);
}
