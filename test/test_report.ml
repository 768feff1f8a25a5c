(* Tests for the markdown builder. *)

module Markdown = Ncg_reporting.Markdown

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let contains haystack needle =
  let hl = String.length haystack and nl = String.length needle in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

let count_lines_matching pred s =
  List.length (List.filter pred (String.split_on_char '\n' s))

(* --- Markdown ------------------------------------------------------------- *)

let test_heading () =
  let md = Markdown.create () in
  Markdown.heading md 2 "Results";
  check_bool "rendered" true (contains (Markdown.to_string md) "## Results");
  let md2 = Markdown.create () in
  Markdown.heading md2 9 "clamped";
  check_bool "clamped to 6" true (contains (Markdown.to_string md2) "###### clamped")

let test_table_shape () =
  let md = Markdown.create () in
  Markdown.table md ~header:[ "a"; "b" ] [ [ "1"; "2" ]; [ "3" ] ];
  let s = Markdown.to_string md in
  check_bool "header" true (contains s "| a | b |");
  check_bool "separator" true (contains s "| --- | --- |");
  (* Short rows are padded to the header width. *)
  check_bool "padded row" true (contains s "| 3 |  |")

let test_table_escapes_pipes () =
  let md = Markdown.create () in
  Markdown.table md ~header:[ "x" ] [ [ "a|b" ] ];
  check_bool "escaped" true (contains (Markdown.to_string md) "a\\|b")

let test_code_block_fencing () =
  let md = Markdown.create () in
  Markdown.code_block md "plain text";
  let s = Markdown.to_string md in
  check_int "two fences" 2 (count_lines_matching (fun l -> l = "```") s);
  (* Text containing a triple fence gets longer fences around it. *)
  let md2 = Markdown.create () in
  Markdown.code_block md2 "a\n```\nb";
  let s2 = Markdown.to_string md2 in
  check_int "longer fences" 2 (count_lines_matching (fun l -> l = "````") s2)

let test_paragraphs () =
  let md = Markdown.create () in
  Markdown.paragraph md "Intro.";
  let s = Markdown.to_string md in
  check_bool "paragraph" true (contains s "Intro.")

let () =
  Alcotest.run "reporting"
    [
      ( "markdown",
        [
          Alcotest.test_case "heading" `Quick test_heading;
          Alcotest.test_case "table shape" `Quick test_table_shape;
          Alcotest.test_case "pipe escaping" `Quick test_table_escapes_pipes;
          Alcotest.test_case "code fences" `Quick test_code_block_fencing;
          Alcotest.test_case "paragraphs" `Quick test_paragraphs;
        ] );
    ]
