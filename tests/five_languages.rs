//! The full Figure-1.2 interface family on one MLDS instance: DL/I,
//! SQL, CODASYL-DML, Daplex and raw ABDL, all over the same kernel.

use mlds::{daplex, Mlds};

const SQL_DDL: &str = "
CREATE DATABASE suppliers;
CREATE TABLE supplier (
    sno INTEGER NOT NULL, sname CHAR(20), city CHAR(15), PRIMARY KEY (sno));
CREATE TABLE part (
    pno INTEGER NOT NULL, pname CHAR(20), city CHAR(15), PRIMARY KEY (pno));
";

const DBD: &str = "
HIERARCHY NAME IS school.
SEGMENT department.
  02 dno TYPE IS FIXED.
  02 dname TYPE IS CHARACTER 20.
  SEQUENCE IS dno.
SEGMENT course PARENT IS department.
  02 cno TYPE IS FIXED.
  02 title TYPE IS CHARACTER 30.
  SEQUENCE IS cno.
";

const NET_DDL: &str = "
SCHEMA NAME IS airline.
RECORD NAME IS flight.
  02 num TYPE IS FIXED.
SET NAME IS system_flight.
  OWNER IS SYSTEM.
  MEMBER IS flight.
  INSERTION IS AUTOMATIC.
  RETENTION IS FIXED.
  SET SELECTION IS BY APPLICATION.
";

#[test]
fn all_five_data_models_coexist_on_one_kernel() {
    let mut m = Mlds::single_backend();
    // LIL auto-detects every DDL's data model.
    assert_eq!(m.create_database(daplex::university::UNIVERSITY_DDL).unwrap(), "university");
    assert_eq!(m.create_database(SQL_DDL).unwrap(), "suppliers");
    assert_eq!(m.create_database(DBD).unwrap(), "school");
    assert_eq!(m.create_database(NET_DDL).unwrap(), "airline");
    assert_eq!(m.database_names().len(), 4);
    assert!(m.functional_schema("university").is_some());
    assert!(m.relational_schema("suppliers").is_some());
    assert!(m.hierarchical_schema("school").is_some());
    assert!(m.network_schema("airline").is_some());

    // --- Daplex on the functional database ---
    m.populate_university("university").unwrap();
    let mut dap = m.connect_daplex("shipman", "university").unwrap();
    let rows = m
        .execute_daplex(&mut dap, "FOR EACH student PRINT name(student);")
        .unwrap();
    assert_eq!(rows[0].affected, 4);

    // --- CODASYL-DML (cross-model!) on the same functional database ---
    let mut net = m.connect_codasyl("coker", "university").unwrap();
    let out = m
        .execute_codasyl(
            &mut net,
            "MOVE 'Advanced Database' TO title IN course\nFIND ANY course USING title IN course",
        )
        .unwrap();
    assert!(out[1].display.contains("Advanced Database"));

    // --- SQL on the relational database ---
    let mut sql = m.connect_sql("codd", "suppliers").unwrap();
    m.execute_sql(
        &mut sql,
        "INSERT INTO supplier (sno, sname, city) VALUES (1, 'Smith', 'London');
         INSERT INTO supplier (sno, sname, city) VALUES (2, 'Jones', 'Paris');
         INSERT INTO part (pno, pname, city) VALUES (1, 'Nut', 'Paris');",
    )
    .unwrap();
    let out = m
        .execute_sql(
            &mut sql,
            "SELECT s.sname, p.pname FROM supplier s, part p WHERE s.city = p.city;",
        )
        .unwrap();
    assert!(out[0].display.contains("Jones"), "{}", out[0].display);
    assert!(out[0].display.contains("Nut"));

    // --- DL/I on the hierarchical database ---
    let mut ims = m.connect_dli("ibm", "school").unwrap();
    m.execute_dli(
        &mut ims,
        "ISRT department (dno = 1, dname = 'CS')
         ISRT course (cno = 10, title = 'Databases')",
    )
    .unwrap();
    let out = m
        .execute_dli(&mut ims, "GU department (dno = 1) course (cno = 10)")
        .unwrap();
    assert!(out[0].display.contains("Databases"), "{}", out[0].display);

    // --- raw ABDL against the shared kernel (kernel files are
    //     namespaced per database: `suppliers.supplier`) ---
    let resp = m
        .kernel_mut()
        .execute(
            &mlds::abdl::parse::parse_request(
                "RETRIEVE (FILE = 'suppliers.supplier') (COUNT(sno))",
            )
            .unwrap(),
        )
        .unwrap();
    assert_eq!(resp.groups.unwrap()[0].values[0], mlds::abdl::Value::Int(2));

    // All four databases share one kernel but separate files: count them.
    let files = m.kernel_mut().file_names().count();
    assert!(files > 8 + 2 + 2, "files from all four databases, saw {files}");
}

#[test]
fn sql_fanout_matches_the_translation_table() {
    let mut m = Mlds::single_backend();
    m.create_database(SQL_DDL).unwrap();
    let mut sql = m.connect_sql("codd", "suppliers").unwrap();
    let out = m
        .execute_sql(
            &mut sql,
            "INSERT INTO supplier (sno, sname) VALUES (1, 'A');
             SELECT * FROM supplier;
             UPDATE supplier SET sname = 'B', city = 'C' WHERE sno = 1;
             DELETE FROM supplier WHERE sno = 1;",
        )
        .unwrap();
    let fanout: Vec<usize> = out.iter().map(|o| o.abdl.len()).collect();
    // INSERT→1, SELECT→1, UPDATE→one per SET column, DELETE→1.
    assert_eq!(fanout, vec![1, 1, 2, 1]);
}

#[test]
fn dli_runs_on_the_multi_backend_kernel_too() {
    let mut m = Mlds::multi_backend(3);
    m.create_database(DBD).unwrap();
    let mut ims = m.connect_dli("ibm", "school").unwrap();
    m.execute_dli(
        &mut ims,
        "ISRT department (dno = 1, dname = 'CS')
         ISRT course (cno = 10, title = 'Databases')
         ISRT course (cno = 20, title = 'Compilers')",
    )
    .unwrap();
    let out = m.execute_dli(&mut ims, "GU department (dno = 1)\nDLET department").unwrap();
    assert_eq!(out[1].affected, 3, "cascade across partitions");
}

#[test]
fn kernel_dump_restore_preserves_every_database() {
    let mut m = Mlds::single_backend();
    m.create_database(daplex::university::UNIVERSITY_DDL).unwrap();
    m.populate_university("university").unwrap();
    m.create_database(SQL_DDL).unwrap();
    let mut sql = m.connect_sql("codd", "suppliers").unwrap();
    m.execute_sql(&mut sql, "INSERT INTO supplier (sno, sname) VALUES (1, 'Smith');")
        .unwrap();

    let dump = m.dump_kernel();

    // A fresh MLDS: schemas recreated, kernel restored.
    let mut m2 = Mlds::single_backend();
    m2.create_database(daplex::university::UNIVERSITY_DDL).unwrap();
    m2.create_database(SQL_DDL).unwrap();
    m2.restore_kernel(&dump).unwrap();

    let mut net = m2.connect_codasyl("u", "university").unwrap();
    let out = m2
        .execute_codasyl(
            &mut net,
            "MOVE 'Advanced Database' TO title IN course\nFIND ANY course USING title IN course",
        )
        .unwrap();
    assert!(out[1].display.contains("Advanced Database"));
    let mut sql2 = m2.connect_sql("codd", "suppliers").unwrap();
    let out = m2.execute_sql(&mut sql2, "SELECT sname FROM supplier;").unwrap();
    assert!(out[0].display.contains("Smith"));
    // Constraints survive too: the primary key still rejects duplicates.
    let err = m2
        .execute_sql(&mut sql2, "INSERT INTO supplier (sno, sname) VALUES (1, 'Dup');")
        .unwrap_err();
    assert!(err.to_string().contains("duplicate"));
}

#[test]
fn sql_reads_a_hierarchical_database_through_the_derived_view() {
    // The Zawis edge: "accessing a hierarchical database via SQL".
    let mut m = Mlds::single_backend();
    m.create_database(DBD).unwrap();
    let mut ims = m.connect_dli("ibm", "school").unwrap();
    m.execute_dli(
        &mut ims,
        "ISRT department (dno = 1, dname = 'CS')
         ISRT course (cno = 10, title = 'Databases')
         ISRT course (cno = 20, title = 'Compilers')
         ISRT department (dno = 2, dname = 'Math')
         ISRT course (cno = 30, title = 'Algebra')",
    )
    .unwrap();

    let mut sql = m.connect_sql("zawis", "school").unwrap();
    assert!(m.sql_view("school").is_some());
    // Parent-child traversal is an equi-join through the arc column.
    let out = m
        .execute_sql(
            &mut sql,
            "SELECT d.dname, c.title FROM department d, course c \
             WHERE c.department_course = d.department_key AND d.dname = 'CS' \
             ORDER BY title;",
        )
        .unwrap();
    assert!(out[0].display.contains("Compilers"), "{}", out[0].display);
    assert!(out[0].display.contains("Databases"));
    assert!(!out[0].display.contains("Algebra"));
    // The view is read-only: hierarchy maintenance stays with DL/I.
    let err = m
        .execute_sql(&mut sql, "DELETE FROM course;")
        .unwrap_err();
    assert!(err.to_string().contains("read-only"), "{err}");
}

/// Every language reads text as UTF-8: a non-ASCII value inserted
/// through one interface reads back unchanged through the same one.
#[test]
fn every_language_round_trips_non_ascii_text() {
    let mut m = Mlds::single_backend();

    // --- SQL ---
    m.create_database(SQL_DDL).unwrap();
    let mut sql = m.connect_sql("codd", "suppliers").unwrap();
    m.execute_sql(
        &mut sql,
        "INSERT INTO supplier (sno, sname, city) VALUES (1, 'José', 'São Paulo');",
    )
    .unwrap();
    let out =
        m.execute_sql(&mut sql, "SELECT sname, city FROM supplier WHERE sname = 'José';").unwrap();
    let shown = &out[0].display;
    assert_eq!(out[0].affected, 1, "{shown}");
    assert!(shown.contains("José") && shown.contains("São Paulo"), "{shown}");

    // --- DL/I ---
    m.create_database(DBD).unwrap();
    let mut ims = m.connect_dli("ibm", "school").unwrap();
    m.execute_dli(&mut ims, "ISRT department (dno = 1, dname = 'Müller')").unwrap();
    let out = m.execute_dli(&mut ims, "GU department (dname = 'Müller')").unwrap();
    assert!(out[0].display.contains("Müller"), "{}", out[0].display);

    // --- CODASYL-DML ---
    m.create_database(
        "SCHEMA NAME IS routes.
         RECORD NAME IS leg.
           02 num TYPE IS FIXED.
           02 dest TYPE IS CHARACTER 20.
         SET NAME IS system_leg.
           OWNER IS SYSTEM.
           MEMBER IS leg.
           INSERTION IS AUTOMATIC.
           RETENTION IS FIXED.
           SET SELECTION IS BY APPLICATION.",
    )
    .unwrap();
    let mut net = m.connect_codasyl("coker", "routes").unwrap();
    m.execute_codasyl(&mut net, "MOVE 1 TO num IN leg\nMOVE 'Zürich' TO dest IN leg\nSTORE leg")
        .unwrap();
    let out = m
        .execute_codasyl(
            &mut net,
            "MOVE 'Zürich' TO dest IN leg\nFIND ANY leg USING dest IN leg\nGET leg",
        )
        .unwrap();
    assert!(out[2].display.contains("Zürich"), "{}", out[2].display);

    // --- Daplex ---
    m.create_database(daplex::university::UNIVERSITY_DDL).unwrap();
    let mut dap = m.connect_daplex("shipman", "university").unwrap();
    m.execute_daplex(
        &mut dap,
        "CREATE student (name := 'Ærøskøbing', age := 21, major := 'Ciência');",
    )
    .unwrap();
    let out = m
        .execute_daplex(
            &mut dap,
            "FOR EACH student SUCH THAT name(student) = 'Ærøskøbing'
                 PRINT name(student), major(student);",
        )
        .unwrap();
    assert_eq!(out[0].affected, 1, "{}", out[0].display);
    assert!(out[0].display.contains("Ciência"), "{}", out[0].display);

    // --- raw ABDL (a non-ASCII bareword file name, string and body) ---
    let abdl = |text: &str| mlds::abdl::parse::parse_request(text).unwrap();
    let k = m.kernel_mut();
    k.execute(&abdl("INSERT (<FILE, café>, <name, 'Łódź'>, {crème brûlée})")).unwrap();
    let resp = k.execute(&abdl("RETRIEVE ((FILE = café) and (name = 'Łódź')) (*)")).unwrap();
    let (_, rec) = &resp.records()[0];
    assert_eq!(rec.get("name"), Some(&mlds::abdl::Value::str("Łódź")));
    assert_eq!(rec.file(), Some("café"));
    assert_eq!(rec.body.as_deref(), Some("crème brûlée"));
}

/// `CHAR(n)` truncation stops at a char boundary instead of splitting
/// (and panicking on) a multi-byte character.
#[test]
fn char_truncation_keeps_whole_characters() {
    let mut m = Mlds::single_backend();
    m.create_database(
        "CREATE DATABASE tiny;
         CREATE TABLE t (k INTEGER NOT NULL, c CHAR(1), d CHAR(3), PRIMARY KEY (k));",
    )
    .unwrap();
    let mut sql = m.connect_sql("codd", "tiny").unwrap();
    m.execute_sql(&mut sql, "INSERT INTO t (k, c, d) VALUES (1, 'é', 'aéb');").unwrap();
    let out = m.execute_sql(&mut sql, "SELECT d FROM t WHERE k = 1;").unwrap();
    let shown = &out[0].display;
    assert!(shown.contains("aé") && !shown.contains("aéb"), "{shown}");
}
