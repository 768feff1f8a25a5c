let power g h =
  if h < 0 then invalid_arg "Power.power: negative exponent";
  let n = Graph.order g in
  if h = 0 then Graph.empty n
  else begin
    (* Per-vertex segment of the power graph = ball(u) \ {u}, already in
       ascending order when read off the distance buffer; assemble the CSR
       directly with one BFS per vertex and one shared scratch. *)
    let s = Bfs.create_scratch ~capacity:n () in
    let rows = Array.make n [||] in
    for u = 0 to n - 1 do
      let visited = Bfs.run s g u ~radius:h in
      let dist = Bfs.dist_array s in
      let row = Array.make (visited - 1) 0 in
      let i = ref 0 in
      for v = 0 to n - 1 do
        if v <> u && dist.(v) >= 0 then begin
          row.(!i) <- v;
          incr i
        end
      done;
      rows.(u) <- row
    done;
    let offsets = Array.make (n + 1) 0 in
    for u = 0 to n - 1 do
      offsets.(u + 1) <- offsets.(u) + Array.length rows.(u)
    done;
    let total = offsets.(n) in
    let packed = Array.make total 0 in
    Array.iteri (fun u row -> Array.blit row 0 packed offsets.(u) (Array.length row)) rows;
    Graph.unsafe_of_csr ~n ~m:(total / 2) ~offsets ~packed
  end
